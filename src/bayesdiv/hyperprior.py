"""Flattening hyper-priors over the concentration parameters.

A symmetric Dirichlet prior pins the divergence close to its prior mean,
which depends only on the concentration.  Mixing over (alpha, beta) with
the weights below spreads that prior mean out so its natural transform is
log-uniform, removing the default-value bias of any single choice.

For the KL divergence the relevant coordinates are the prior mean entropy
A(alpha) (below ln K) and prior mean cross-entropy B(beta) (above ln K);
the weight makes z = B - A log-uniform.  For the squared Hellinger
distance the coordinate is z = 1 - g(alpha) g(beta), built from the prior
mean Bhattacharyya coefficient.

All functions return unnormalized log densities over the *linear*
(alpha, beta) measure; quadrature code adds the ln(alpha) + ln(beta)
Jacobian when integrating on log-spaced grids.
"""

import numpy as np

from .posterior import check_K, prior_mean_crossentropy, prior_mean_entropy
from .specfun import check_positive, delta_psi, float_if_scalar, log_half_ratio, trigamma

__all__ = [
    "prior_entropy_slope",
    "prior_crossentropy_slope",
    "log_weight_kl",
    "bhattacharyya_factor_log_slope",
    "log_weight_hellinger",
]


def prior_entropy_slope(alpha, K):
    """dA/dalpha = K psi_1(K alpha + 1) - psi_1(alpha + 1); positive."""
    a = check_positive(alpha, "alpha")
    K = check_K(K)
    return K * trigamma(K * a + 1.0) - trigamma(a + 1.0)


def prior_crossentropy_slope(beta, K):
    """dB/dbeta = K psi_1(K beta) - psi_1(beta); negative (B decreases)."""
    b = check_positive(beta, "beta")
    K = check_K(K)
    return K * trigamma(K * b) - trigamma(b)


def log_weight_kl(alpha, beta, K):
    """ln of the KL flattening weight rho(alpha, beta), up to a constant.

    Composed of the two Jacobians |dA/dalpha|, |dB/dbeta| and the target
    density in z = B(beta) - A(alpha): rho(z) ~ 1/z made log-uniform,
    divided by the overlap length min(z, ln K) of the (A, B) strip at
    fixed z.
    """
    a = check_positive(alpha, "alpha")
    b = check_positive(beta, "beta")
    K = check_K(K)
    mean_a = prior_mean_entropy(a, K)
    mean_b = prior_mean_crossentropy(b, K)
    # A < ln K < B for every alpha and beta, so this is z > 0 everywhere
    if not np.min(mean_b) > np.max(mean_a):
        raise ValueError("prior mean cross-entropy must exceed mean entropy")
    log_z = np.log(mean_b - mean_a)
    # ln phi(z) = -ln z - ln min(z, ln K)
    out = np.minimum(log_z, np.log(np.log(K)))
    out += log_z
    out = np.log(prior_entropy_slope(a, K)) - out
    out += np.log(-prior_crossentropy_slope(b, K))
    return float_if_scalar(out, alpha, beta)


# --- squared Hellinger ----------------------------------------------------

def _log_g(x, K):
    # ln[sqrt(K) B(1/2, Kx) / B(1/2, x)], with each ln B(1/2, y) written as
    # ln Gamma(1/2) - (1/2) ln y - log_half_ratio(y)
    return log_half_ratio(x) - log_half_ratio(K * x)


def _half_ratio_slope(x):
    # derivative of log_half_ratio's asymptotic series, for x >= 30
    return 1 / (8 * x**2) - 1 / (64 * x**4) + 1 / (128 * x**6) - 17 / (2048 * x**8)


def bhattacharyya_factor_log_slope(x, K):
    """d ln g / dx = dpsi(x + 1/2, x) - K dpsi(Kx + 1/2, Kx), free of cancellation.

    As psi(y + 1) = psi(y) + 1/y, it equals K dpsi(Kx + 1, Kx + 1/2) -
    dpsi(x + 1, x + 1/2), used below x = 30.  From there on those terms
    nearly cancel, and the derivative h' of log_half_ratio's series gives
    h'(x) - K h'(Kx).
    """
    xv = check_positive(x, "x")
    K = check_K(K)
    s = np.minimum(xv, 30.0)
    near = K * delta_psi(K * s + 1.0, K * s + 0.5) - delta_psi(s + 1.0, s + 0.5)
    b = np.maximum(xv, 30.0)
    out = np.where(xv >= 30.0, _half_ratio_slope(b) - K * _half_ratio_slope(K * b), near)
    return float_if_scalar(out, x)


def log_weight_hellinger(alpha, beta, K):
    """ln of the Hellinger flattening weight, up to a constant.

    Makes z = 1 - g(alpha) g(beta) (the prior mean squared Hellinger
    distance) log-uniform after accounting for the bounded range of g.
    """
    a = check_positive(alpha, "alpha")
    b = check_positive(beta, "beta")
    K = check_K(K)
    lg_a, lg_b = _log_g(a, K), _log_g(b, K)
    z = -np.expm1(lg_a + lg_b)                       # 1 - g g, in (0, 1)
    # rounded addition and expm1 are monotone, so the axis extremes bound z
    if not (-np.expm1(np.max(lg_a) + np.max(lg_b)) > 0
            and -np.expm1(np.min(lg_a) + np.min(lg_b)) < 1):
        raise ValueError("1 - g(alpha) g(beta) must lie in (0, 1)")
    slope_a = bhattacharyya_factor_log_slope(a, K)
    slope_b = bhattacharyya_factor_log_slope(b, K)
    if not (np.all(slope_a > 0) and np.all(slope_b > 0)):
        raise ValueError("g must increase in alpha and in beta")
    # |dg/dx| = g * dlng/dx; target density rho(z)(1-z)^2/(z(2-z)) with
    # rho(z) ~ 1/z; as (1-z)^2 = g(alpha)^2 g(beta)^2, the axis terms add
    # before the broadcast and one grid term remains
    out = (3.0 * lg_a + np.log(slope_a)) + (3.0 * lg_b + np.log(slope_b))
    out -= np.log(z * z * (2.0 - z))
    return float_if_scalar(out, alpha, beta)
