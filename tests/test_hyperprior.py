"""Divergence-flattening hyper-prior weights and their building blocks."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bayesdiv.hyperprior import (
    _log_g,
    bhattacharyya_factor_log_slope,
    log_weight_hellinger,
    log_weight_kl,
    prior_crossentropy_slope,
    prior_entropy_slope,
)
from bayesdiv.posterior import prior_mean_crossentropy, prior_mean_entropy


# --- prior-mean slopes -------------------------------------------------------

def test_entropy_slope_hand_value():
    # dA/dalpha at alpha=1, K=2: 2 psi_1(3) - psi_1(2) = pi^2/6 - 3/2
    want = math.pi**2 / 6 - 1.5
    assert prior_entropy_slope(1.0, 2) == pytest.approx(want, rel=1e-14, abs=0)
    assert prior_entropy_slope(1.0, 2) == pytest.approx(0.1449340668482264, abs=1e-15)


def test_slope_signs():
    xs = 10.0 ** np.linspace(-4, 4, 33)
    for K in (2, 20, 400, 8000):
        assert np.all(prior_entropy_slope(xs, K) > 0)
        assert np.all(prior_crossentropy_slope(xs, K) < 0)


@pytest.mark.parametrize("K", [2, 50, 400])
def test_slopes_match_finite_differences(K):
    xs = 10.0 ** np.linspace(-3, 3, 25)
    h = 1e-5 * xs
    fd_a = (prior_mean_entropy(xs + h, K) - prior_mean_entropy(xs - h, K)) / (2 * h)
    fd_b = (
        prior_mean_crossentropy(xs + h, K) - prior_mean_crossentropy(xs - h, K)
    ) / (2 * h)
    np.testing.assert_allclose(prior_entropy_slope(xs, K), fd_a, rtol=1e-6)
    np.testing.assert_allclose(prior_crossentropy_slope(xs, K), fd_b, rtol=1e-6)


# --- Bhattacharyya prior factor ------------------------------------------------

def _g(x, K):
    """g(x) = sqrt(K) B(1/2, Kx) / B(1/2, x), the prior mean Bhattacharyya factor."""
    return np.exp(_log_g(x, K))


@pytest.mark.parametrize("K", [2, 50, 400])
def test_bhattacharyya_factor_range_and_monotonicity(K):
    xs = 10.0 ** np.linspace(-4, 4, 60)
    g = _g(xs, K)
    assert np.all((g > 0) & (g < 1))
    assert np.all(np.diff(g) > 0)
    assert _g(1e6, K) > 0.999


@pytest.mark.parametrize("K", [2, 50, 400])
def test_bhattacharyya_log_slope_matches_finite_differences(K):
    # differencing ln g is well conditioned at small x; beyond that the
    # slope shrinks like 1/x^2 below the finite-difference round-off, and
    # mpmath takes over below
    xs = 10.0 ** np.linspace(-3, 0.5, 15)
    h = 1e-5 * xs
    fd = (_log_g(xs + h, K) - _log_g(xs - h, K)) / (2 * h)
    np.testing.assert_allclose(
        bhattacharyya_factor_log_slope(xs, K), fd, rtol=1e-5, atol=1e-12
    )


@pytest.mark.parametrize("K", [2, 400])
def test_bhattacharyya_log_slope_matches_mpmath_at_large_x(K):
    import mpmath

    mpmath.mp.dps = 40
    for x in (10.0, 1e3, 1e6):
        truth = float(
            mpmath.digamma(x + 0.5)
            - mpmath.digamma(x)
            - K * (mpmath.digamma(K * x + 0.5) - mpmath.digamma(K * x))
        )
        got = float(bhattacharyya_factor_log_slope(x, K))
        assert got == pytest.approx(truth, rel=1e-10)


@pytest.mark.parametrize("K", [2, 10**7])
def test_log_weight_hellinger_matches_mpmath_near_the_large_corner(K):
    # 1 - g(alpha) g(beta) shrinks like 1/alpha + 1/beta; ln g must keep its
    # relative precision there, or the weight turns noisy toward (1e6, 1e6)
    import mpmath

    mpmath.mp.dps = 50
    half = mpmath.mpf(1) / 2

    def log_g(x):
        ratio = mpmath.beta(half, K * x) / mpmath.beta(half, x)
        return mpmath.log(mpmath.sqrt(K) * ratio)

    def slope(x):
        return (mpmath.digamma(x + half) - mpmath.digamma(x)
                - K * (mpmath.digamma(K * x + half) - mpmath.digamma(K * x)))

    for alpha, beta in ((1e3, 1e6), (1e6, 1e6), (3.0, 1e6)):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        log_gg = log_g(a) + log_g(b)
        z = -mpmath.expm1(log_gg)
        truth = float(
            log_gg + mpmath.log(slope(a)) + mpmath.log(slope(b))
            + 2 * log_gg - 2 * mpmath.log(z) - mpmath.log(2 - z)
        )
        assert log_weight_hellinger(alpha, beta, K) == pytest.approx(truth, rel=1e-9, abs=0)


def test_bhattacharyya_log_slope_positive():
    xs = 10.0 ** np.linspace(-4, 4, 33)
    for K in (2, 400):
        assert np.all(bhattacharyya_factor_log_slope(xs, K) > 0)


# --- KL weight ------------------------------------------------------------------

def test_log_weight_kl_broadcasts_and_is_finite():
    a = 10.0 ** np.linspace(-4, 4, 30)
    out = log_weight_kl(a[:, None], a[None, :], 400)
    assert out.shape == (30, 30)
    assert np.all(np.isfinite(out))


def _phi_part(alpha, beta, K):
    """Strip the slope jacobians off the KL weight, leaving ln phi(z)."""
    return (
        log_weight_kl(alpha, beta, K)
        - np.log(prior_entropy_slope(alpha, K))
        - np.log(-prior_crossentropy_slope(beta, K))
    )


def test_kl_weight_depends_on_z_only():
    # pairs engineered to share z must share the phi part exactly
    K = 400
    z_target = 3.0

    def beta_for(alpha):
        need = z_target + prior_mean_entropy(alpha, K)
        return math.exp(
            brentq(
                lambda lb: prior_mean_crossentropy(math.exp(lb), K) - need,
                math.log(1e-8),
                math.log(1e8),
                xtol=1e-15,
            )
        )

    parts = [_phi_part(a, beta_for(a), K) for a in (0.3, 1.0, 10.0)]
    assert max(parts) - min(parts) < 1e-10


def test_kl_weight_phi_branches():
    # below ln K the density in z is 1/z^2; above, 1/(z ln K); both match
    # the closed forms and join continuously at z = ln K
    K = 400
    log_k = math.log(K)

    def z_of(alpha, beta):
        return prior_mean_crossentropy(beta, K) - prior_mean_entropy(alpha, K)

    lo_a, lo_b = 1.0, 50.0
    z_lo = z_of(lo_a, lo_b)
    assert z_lo < log_k
    assert _phi_part(lo_a, lo_b, K) == pytest.approx(-2 * math.log(z_lo), rel=1e-12, abs=0)

    hi_a, hi_b = 10.0, 1e-4
    z_hi = z_of(hi_a, hi_b)
    assert z_hi > log_k
    assert _phi_part(hi_a, hi_b, K) == pytest.approx(
        -math.log(z_hi) - math.log(log_k), rel=1e-12, abs=0
    )

    # continuity probe: solve for pairs with z just below / above ln K
    def beta_for(alpha, z_target):
        need = z_target + prior_mean_entropy(alpha, K)
        return math.exp(
            brentq(
                lambda lb: prior_mean_crossentropy(math.exp(lb), K) - need,
                math.log(1e-8),
                math.log(1e8),
                xtol=1e-15,
            )
        )

    eps = 1e-7
    below = _phi_part(1.0, beta_for(1.0, log_k * (1 - eps)), K)
    above = _phi_part(1.0, beta_for(1.0, log_k * (1 + eps)), K)
    assert below == pytest.approx(above, abs=1e-5)


# --- Hellinger weight -------------------------------------------------------------

def test_log_weight_hellinger_finite_and_symmetric():
    a = 10.0 ** np.linspace(-4, 4, 25)
    out = log_weight_hellinger(a[:, None], a[None, :], 400)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, out.T, rtol=1e-12)


def test_log_weight_hellinger_matches_component_assembly():
    K = 50
    rng = np.random.default_rng(6)
    for _ in range(20):
        alpha, beta = np.exp(rng.uniform(-6, 6, size=2))
        g_a = _g(alpha, K)
        g_b = _g(beta, K)
        z = 1.0 - g_a * g_b
        want = (
            math.log(g_a)
            + math.log(bhattacharyya_factor_log_slope(alpha, K))
            + math.log(g_b)
            + math.log(bhattacharyya_factor_log_slope(beta, K))
            + 2.0 * math.log(1.0 - z)
            - 2.0 * math.log(z)
            - math.log(2.0 - z)
        )
        assert log_weight_hellinger(alpha, beta, K) == pytest.approx(want, rel=1e-9, abs=0)


def test_extreme_corners_stay_finite():
    for K in (2, 400):
        for a in (1e-6, 1e6):
            for b in (1e-6, 1e6):
                assert np.isfinite(log_weight_kl(a, b, K))
                assert np.isfinite(log_weight_hellinger(a, b, K))


# --- validation survives python -O ---------------------------------------------
#
# The checks guard identities that hold for every valid (alpha, beta, K), so
# each test breaks one building block to reach its check.

def test_kl_weight_rejects_entropy_above_crossentropy(monkeypatch):
    import bayesdiv.hyperprior as hp

    monkeypatch.setattr(hp, "prior_mean_entropy", lambda a, K: a * 0.0 + 100.0)
    with pytest.raises(ValueError, match="cross-entropy"):
        log_weight_kl(1.0, 1.0, 400)


def test_hellinger_weight_rejects_z_outside_unit_interval(monkeypatch):
    import bayesdiv.hyperprior as hp

    monkeypatch.setattr(hp, "_log_g", lambda x, K: x * 0.0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        log_weight_hellinger(1.0, 1.0, 400)


def test_hellinger_weight_rejects_decreasing_g(monkeypatch):
    import bayesdiv.hyperprior as hp

    monkeypatch.setattr(hp, "bhattacharyya_factor_log_slope", lambda x, K: x * 0.0 - 1.0)
    with pytest.raises(ValueError, match="increase"):
        log_weight_hellinger(1.0, 1.0, 400)
