"""Kernel evaluation, synthesis, and quadrature-oracle agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import erf

from funcbin import BinningKernel, ReconKernel, synthesize_kappa
from funcbin.kernels import (
    BINNING_SUPPORT,
    RECON_SUPPORT,
    eval_binning_kernel,
    eval_binning_kernel_prime,
    eval_recon_kernel,
)
from funcbin.kernels import _ANTIDERS, _lanczos_raw

import kernel_oracle
from kernel_oracle import kappa_mass, kernel_mass, numeric_convolve_oracle

ALL_PAIRS = [(k, l) for k in BinningKernel for l in ReconKernel]


def test_rect_values():
    # half-open [-1/2, 1/2): a point on a bin edge counts in exactly one bin
    xs = np.array([-0.6, -0.5, -0.49, 0.0, 0.49, 0.5, 0.6])
    np.testing.assert_allclose(
        eval_binning_kernel(BinningKernel.RECT, xs), [0, 1, 1, 1, 1, 0, 0]
    )


def test_linear_values():
    xs = np.array([-1.5, -0.5, 0.0, 0.25, 1.0])
    np.testing.assert_allclose(
        eval_binning_kernel(BinningKernel.LINEAR, xs), [0, 0.5, 1.0, 0.75, 0]
    )


def test_gauss_is_truncated_not_renormalized():
    # the truncated gaussian keeps the standard normal density inside |x| < 1.5
    x = np.array([0.0, 1.0, 1.49, 1.51])
    expect = np.exp(-x**2 / 2) / np.sqrt(2 * np.pi)
    expect[3] = 0.0
    np.testing.assert_allclose(eval_binning_kernel(BinningKernel.GAUSS_TRUNC, x), expect)
    mass = kernel_mass(BinningKernel.GAUSS_TRUNC)
    assert abs(mass - erf(1.5 / np.sqrt(2))) < 1e-9
    assert mass < 1.0


def test_binning_kernel_prime_matches_fd_away_from_kinks():
    rng = np.random.default_rng(3)
    for k in BinningKernel:
        xs = rng.uniform(-1.4, 1.4, 200)
        # keep a margin from the discontinuities of k and k'
        xs = xs[np.min(np.abs(xs[:, None] - np.array([-1.5, -1, -0.5, 0, 0.5, 1, 1.5])), axis=1) > 1e-3]
        h = 1e-6
        fd = (eval_binning_kernel(k, xs + h) - eval_binning_kernel(k, xs - h)) / (2 * h)
        np.testing.assert_allclose(eval_binning_kernel_prime(k, xs), fd, atol=1e-6)


def test_recon_kernels_unit_mass():
    xs = np.linspace(-2.5, 2.5, 200001)
    for l in ReconKernel:
        mass = np.trapezoid(eval_recon_kernel(l, xs), xs)
        assert abs(mass - 1.0) < 1e-6, l


def test_lanczos_raw_mass_differs():
    xs = np.linspace(-2.0, 2.0, 200001)
    raw = np.trapezoid(_lanczos_raw(xs), xs)
    assert abs(raw - 1.0) > 1e-4  # the windowed sinc does not integrate to one


def test_cubic_interpolation_conditions():
    # the cubic reconstruction interpolates: 1 at 0, 0 at the other integers
    vals = eval_recon_kernel(ReconKernel.CUBIC, np.array([0.0, 1.0, 2.0, -1.0]))
    np.testing.assert_allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_kappa_rect_linear_closed_form_points():
    sk = synthesize_kappa(BinningKernel.RECT, ReconKernel.LINEAR)
    assert abs(sk.kappa(0.0) - 0.75) < 1e-12
    assert abs(sk.kappa(1.0) - 0.125) < 1e-12
    assert abs(sk.kappa(-1.0) - 0.125) < 1e-12
    assert abs(sk.kappa_prime(0.5) - (-1.0)) < 1e-12
    assert abs(sk.kappa_prime(1.0) - (-0.5)) < 1e-12


def test_kappa_linear_linear_closed_form_points():
    sk = synthesize_kappa(BinningKernel.LINEAR, ReconKernel.LINEAR)
    assert abs(sk.kappa(0.0) - 2.0 / 3.0) < 1e-12
    assert abs(sk.kappa(2.0)) < 1e-12


@pytest.mark.parametrize(
    "k,oracle",
    [(BinningKernel.RECT, kernel_oracle.rect_antider), (BinningKernel.GAUSS_TRUNC, kernel_oracle.gauss_antider)],
)
def test_closed_form_antiderivatives_match_mask_oracle(k, oracle):
    """The np.where antiderivatives, and the kappa built from them, give the mask versions' bits."""
    rng = np.random.default_rng(5)
    edges = np.array([-3.5, -2.5, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5])
    t = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), rng.uniform(-4, 4, 20_000)])
    for order in (1, 2):
        got, want = _ANTIDERS[k](t, order), oracle(t, order)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), order
    sk = synthesize_kappa(k, ReconKernel.LINEAR)
    for order, fn in ((2, sk.kappa), (1, sk.kappa_prime)):
        want = oracle(t + 1.0, order) - 2.0 * oracle(t, order) + oracle(t - 1.0, order)
        want = np.where(np.abs(t) >= sk.support_radius, 0.0, want)
        assert np.array_equal(fn(t).view(np.uint64), want.view(np.uint64)), order


def test_linear_antiderivatives_match_pow_oracle():
    """The triangle's K1 gives the oracle's bits; K2, cubed by products, and its kappa agree to rounding."""
    rng = np.random.default_rng(5)
    edges = np.array([-3.5, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5])
    t = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), rng.uniform(-4, 4, 200_000)])
    oracle = kernel_oracle.linear_antider
    f = _ANTIDERS[BinningKernel.LINEAR]
    assert np.array_equal(f(t, 1).view(np.uint64), oracle(t, 1).view(np.uint64))
    got, want = f(t, 2), oracle(t, 2)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) <= 1e-15
    sk = synthesize_kappa(BinningKernel.LINEAR, ReconKernel.LINEAR)
    want = oracle(t + 1.0, 2) - 2.0 * oracle(t, 2) + oracle(t - 1.0, 2)
    want = np.where(np.abs(t) >= sk.support_radius, 0.0, want)
    assert np.max(np.abs(sk.kappa(t) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("k,l", ALL_PAIRS)
def test_kappa_matches_quadrature_oracle(k, l):
    xs = np.linspace(-3.0, 3.0, 301)
    sk = synthesize_kappa(k, l)
    oracle = numeric_convolve_oracle(k, l, xs)
    tol = 1e-6 if l == ReconKernel.LINEAR else 5e-5
    np.testing.assert_allclose(sk.kappa(xs), oracle, atol=tol)


@pytest.mark.parametrize("k,l", ALL_PAIRS)
def test_kappa_prime_matches_fd_of_kappa(k, l):
    sk = synthesize_kappa(k, l)
    xs = np.linspace(-sk.support_radius + 0.05, sk.support_radius - 0.05, 97)
    h = 1e-5
    fd = (sk.kappa(xs + h) - sk.kappa(xs - h)) / (2 * h)
    np.testing.assert_allclose(sk.kappa_prime(xs), fd, atol=2e-4)


@pytest.mark.parametrize("k,l", ALL_PAIRS)
def test_mass_preserved(k, l):
    sk = synthesize_kappa(k, l)
    assert abs(kappa_mass(sk) - kernel_mass(k)) < 1e-8


@pytest.mark.parametrize("k,l", ALL_PAIRS)
def test_kappa_support(k, l):
    sk = synthesize_kappa(k, l)
    assert sk.support_radius == pytest.approx(BINNING_SUPPORT[k] + RECON_SUPPORT[l])
    out = sk.kappa(np.array([-sk.support_radius - 0.01, sk.support_radius + 0.01]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("k", list(BinningKernel))
@pytest.mark.parametrize("l", [ReconKernel.CUBIC, ReconKernel.LANCZOS])
def test_tabulated_lookup_matches_cubic_spline(k, l):
    """The direct interval lookup evaluates the fitted spline as scipy does."""
    sk = synthesize_kappa(k, l)
    spline = sk._spline
    assert isinstance(spline, CubicSpline)
    r = sk.support_radius
    knots = spline.x
    xs = np.concatenate([knots, np.linspace(-r - 0.5, r + 0.5, 200_001), [-r, r]])
    inside = np.abs(xs) < r
    kappa, kappa_prime = sk.kappa(xs), sk.kappa_prime(xs)
    np.testing.assert_allclose(kappa[inside], spline(xs[inside]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(kappa_prime[inside], spline(xs[inside], 1), rtol=0, atol=1e-14)
    assert np.all(kappa[~inside] == 0.0)
    assert np.all(kappa_prime[~inside] == 0.0)


@settings(deadline=None, max_examples=60)
@given(st.floats(-3.0, 3.0))
def test_kappa_even_symmetry(x):
    sk = synthesize_kappa(BinningKernel.RECT, ReconKernel.LINEAR)
    assert sk.kappa(x) == pytest.approx(sk.kappa(-x), abs=1e-12)
    assert sk.kappa_prime(x) == pytest.approx(-sk.kappa_prime(-x), abs=1e-12)
