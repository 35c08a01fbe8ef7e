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

The weights are unnormalized log densities over the *linear*
(alpha, beta) measure; quadrature code adds the ln(alpha) + ln(beta)
Jacobian when integrating on log-spaced grids.  ``kl_hinge`` locates the
bend of the KL weight on such a grid, for the quadrature's node weights.
"""

import numpy as np

from .posterior import check_K
from .specfun import (_SERIES_FROM, _half_ratio_slope, check_positive, delta_psi,
                      float_if_scalar, log_half_ratio, stacked, trigamma)

__all__ = [
    "prior_entropy_slope",
    "log_weight_kl",
    "kl_hinge",
    "bhattacharyya_factor_log_slope",
    "log_weight_hellinger",
]


def prior_entropy_slope(alpha, K):
    """dA/dalpha = K psi_1(K alpha + 1) - psi_1(alpha + 1); positive."""
    a = check_positive(alpha, "alpha")
    K = check_K(K)
    return K * trigamma(K * a + 1.0) - trigamma(a + 1.0)


def _prior_means(a, b, K):
    """The prior mean entropy A(alpha) and cross-entropy B(beta) (see
    ``posterior.prior_mean_entropy``), from one ``delta_psi`` call."""
    return stacked(delta_psi, (a * K + 1.0, a + 1.0), (b * K, b))


def log_weight_kl(alpha, beta, K):
    """ln of the KL flattening weight rho(alpha, beta), up to a constant.

    Composed of the two Jacobians |dA/dalpha|, |dB/dbeta| and the target
    density in z = B(beta) - A(alpha): rho(z) ~ 1/z made log-uniform,
    divided by the overlap length min(z, ln K) of the (A, B) strip at
    fixed z.  The min bends the weight along the curve z = ln K; see
    ``kl_hinge`` for how a quadrature accounts for it.  Both axes share
    one ``delta_psi`` and one ``trigamma`` call.
    """
    a = check_positive(alpha, "alpha")
    b = check_positive(beta, "beta")
    K = check_K(K)
    mean_a, mean_b = _prior_means(a, b, K)
    # A < ln K < B for every alpha and beta, so this is z > 0 everywhere
    if not np.min(mean_b) > np.max(mean_a):
        raise ValueError("prior mean cross-entropy must exceed mean entropy")
    log_z = np.log(mean_b - mean_a)
    # ln phi(z) = -ln z - ln min(z, ln K)
    out = np.minimum(log_z, np.log(np.log(K)))
    out += log_z
    # dA/dalpha (prior_entropy_slope) and dB/dbeta = K psi_1(K beta) - psi_1(beta)
    up_a, a1, up_b, b1 = stacked(trigamma, (K * a + 1.0,), (a + 1.0,), (K * b,), (b,))
    out = np.log(K * up_a - a1) - out
    out += np.log(-(K * up_b - b1))
    return float_if_scalar(out, alpha, beta)


def kl_hinge(alpha, beta, K):
    """Where ``log_weight_kl`` bends on the grid of ascending axes ``alpha``, ``beta``.

    ln rho = smooth + max(0, g) with g = ln ln K - ln(B(beta) - A(alpha)):
    the min(z, ln K) term bends where z = ln K.  B falls as beta grows, so
    along each alpha row g rises and crosses 0 at most once.  Returns the
    rows i where it crosses inside the beta axis, the cell [beta_j,
    beta_j+1] of each crossing (g_ij <= 0 < g_i,j+1), and the four beta
    nodes around that cell, moved inside the axis, with g on them.  Only
    the axis vectors A(alpha) and B(beta) are evaluated, never the grid;
    the beta axis needs at least four nodes.
    """
    a = check_positive(alpha, "alpha")
    b = check_positive(beta, "beta")
    K = check_K(K)
    # the prior means of log_weight_kl, both axes from one delta_psi call
    mean_a, mean_b = _prior_means(a, b, K)
    # g > 0 where B < A + ln K; -B ascends, so that starts at this index
    first = np.searchsorted(-mean_b, -(mean_a + np.log(K)), side="right")
    rows = np.flatnonzero((first > 0) & (first < len(mean_b)))
    j = first[rows] - 1
    cols = np.clip(j - 1, 0, len(mean_b) - 4)[:, None] + np.arange(4)
    g = np.log(np.log(K)) - np.log(mean_b[cols] - mean_a[rows, None])
    return rows, j, cols, g


# --- squared Hellinger ----------------------------------------------------

def _log_g(x, K):
    # ln[sqrt(K) B(1/2, Kx) / B(1/2, x)], with each ln B(1/2, y) written as
    # ln Gamma(1/2) - (1/2) ln y - log_half_ratio(y)
    h, h_K = stacked(log_half_ratio, (x,), (K * x,))
    return h - h_K


def bhattacharyya_factor_log_slope(x, K):
    """d ln g / dx = dpsi(x + 1/2, x) - K dpsi(Kx + 1/2, Kx), free of cancellation.

    As psi(y + 1) = psi(y) + 1/y, it equals K dpsi(Kx + 1, Kx + 1/2) -
    dpsi(x + 1, x + 1/2), used below x = _SERIES_FROM.  From there on
    those terms nearly cancel, and the derivative h' of log_half_ratio's
    series gives h'(x) - K h'(Kx).
    """
    xv = check_positive(x, "x")
    K = check_K(K)
    far = xv >= _SERIES_FROM
    out = np.empty(xv.shape)
    if not far.all():   # each element takes the one branch it needs
        s = xv[~far]
        up, down = stacked(delta_psi, (K * s + 1.0, K * s + 0.5), (s + 1.0, s + 0.5))
        out[~far] = K * up - down
    if far.any():
        b = xv[far]
        slope, slope_K = stacked(_half_ratio_slope, (b,), (K * b,))
        out[far] = slope - K * slope_K
    return float_if_scalar(out, x)


def log_weight_hellinger(alpha, beta, K):
    """ln of the Hellinger flattening weight, up to a constant.

    Makes z = 1 - g(alpha) g(beta) (the prior mean squared Hellinger
    distance) log-uniform after accounting for the bounded range of g.
    """
    a = check_positive(alpha, "alpha")
    b = check_positive(beta, "beta")
    K = check_K(K)
    # each helper runs once, on both axes
    axes = np.concatenate([a.ravel(), b.ravel()])
    lg = _log_g(axes, K)
    lg_a, lg_b = lg[:a.size].reshape(a.shape), lg[a.size:].reshape(b.shape)
    z = -np.expm1(lg_a + lg_b)                       # 1 - g g, in (0, 1)
    # rounded addition and expm1 are monotone, so the axis extremes bound z
    if not (-np.expm1(np.max(lg_a) + np.max(lg_b)) > 0
            and -np.expm1(np.min(lg_a) + np.min(lg_b)) < 1):
        raise ValueError("1 - g(alpha) g(beta) must lie in (0, 1)")
    slope = bhattacharyya_factor_log_slope(axes, K)
    slope_a, slope_b = slope[:a.size].reshape(a.shape), slope[a.size:].reshape(b.shape)
    if not (np.all(slope_a > 0) and np.all(slope_b > 0)):
        raise ValueError("g must increase in alpha and in beta")
    # |dg/dx| = g * dlng/dx; target density rho(z)(1-z)^2/(z(2-z)) with
    # rho(z) ~ 1/z; as (1-z)^2 = g(alpha)^2 g(beta)^2, the axis terms add
    # before the broadcast and one grid term remains
    out = (3.0 * lg_a + np.log(slope_a)) + (3.0 * lg_b + np.log(slope_b))
    out -= np.log(z * z * (2.0 - z))
    return float_if_scalar(out, alpha, beta)
