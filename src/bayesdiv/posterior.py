"""Posterior expectations under symmetric Dirichlet priors.

Sample 1 counts n with concentration alpha describe the distribution q;
sample 2 counts m with concentration beta describe t.  All expectations
below are over the product posterior Dir(n + alpha) x Dir(m + beta) at
*fixed* hyperparameters; mixing over (alpha, beta) happens in
``bayesdiv.estimators``.

Each quantity is computed once, by a ``*_grid`` evaluator vectorized over
hyperparameter vectors (shape conventions: alphas (A,), betas (B,) ->
grid (A, B)); the scalar contract functions evaluate it at one point.
The grid forms factor every double sum into per-axis pieces combined by
matrix products, so whole quadrature grids cost a few BLAS calls.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .counts import MultiplicityTable
from .specfun import delta_psi, log_half_ratio, trigamma

__all__ = [
    "HyperParams",
    "log_evidence",
    "prior_mean_entropy",
    "prior_mean_crossentropy",
    "posterior_dkl",
    "posterior_dkl_squared",
    "posterior_hellinger_sq",
]


@dataclass(frozen=True)
class HyperParams:
    """Concentration parameters (alpha for q, beta for t) over K categories."""

    alpha: float
    beta: float
    K: int

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if not isinstance(self.K, (int, np.integer)) or self.K < 2:
            raise ValueError("K must be an integer >= 2")


def _check_table(table):
    if not isinstance(table, MultiplicityTable):
        raise ValueError("expected a MultiplicityTable")
    return table


def _check_hp(table, hp):
    if not isinstance(hp, HyperParams):
        raise ValueError("expected HyperParams")
    if hp.K != table.K:
        raise ValueError(f"hyperparameter K={hp.K} != table K={table.K}")
    return hp


def _axis(table, which_sample):
    if which_sample == 1:
        return table.n, table.N
    if which_sample == 2:
        return table.m, table.M
    raise ValueError("which_sample must be 1 or 2")


def _grid_vec(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} must be finite and positive")
    return arr


# --- prior means ----------------------------------------------------------

def prior_mean_entropy(alpha, K):
    """Prior expectation of the entropy of q: always below ln K."""
    return delta_psi(np.asarray(alpha) * K + 1.0, np.asarray(alpha) + 1.0)


def prior_mean_crossentropy(beta, K):
    """Prior expectation of the cross-entropy -sum q ln t: always above ln K."""
    return delta_psi(np.asarray(beta) * K, np.asarray(beta))


# --- evidence -------------------------------------------------------------

def log_evidence_grid(table, alphas, which_sample=1):
    """ln P(counts | alpha) over a vector of alphas, up to a constant.

    The value is ln[B(counts + alpha) / B(alpha)] less every alpha-free
    term: each ln Gamma(x + n) - ln Gamma(x) is taken as
    ln Gamma(n) - ln B(x, n) and its ln Gamma(n) dropped, so the result is
    -sum_i ln B(alpha, n_i) + ln B(K alpha, N) over categories with
    n_i >= 1.  Differencing ln Gamma values of size N ln N would lose the
    digits that separate alphas on a flat evidence; this form keeps them.
    The dropped constant cancels in every posterior ratio.
    """
    _check_table(table)
    alphas = _grid_vec(alphas, "alphas")
    counts, total = _axis(table, which_sample)
    seen = counts > 0
    n = counts[seen].astype(float)
    out = -(_sp.betaln(alphas[:, None], n) @ table.nu[seen].astype(float))
    if total > 0:
        out += _sp.betaln(table.K * alphas, float(total))
    return out


def log_evidence(table, alpha, which_sample=1):
    """ln P(counts | alpha) for one sample, up to an alpha-free constant."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return float(log_evidence_grid(table, [alpha], which_sample)[0])


def log_evidence_gradient(table, alpha, which_sample=1):
    """d/d(alpha) of log_evidence; analytic, cancellation-safe.

    ``alpha`` may be a scalar or a 1-d array; the result has its shape.
    """
    _check_table(table)
    a = np.asarray(alpha, dtype=float)
    av = _grid_vec(a, "alpha")
    counts, total = _axis(table, which_sample)
    K = table.K
    nz = counts > 0
    out = -K * delta_psi(total + K * av, K * av)
    if nz.any():
        per_pair = delta_psi(counts[nz][None, :] + av[:, None], av[:, None])
        out += per_pair @ table.nu[nz].astype(float)
    return float(out[0]) if a.ndim == 0 else out


def log_evidence_curvature(table, alpha, which_sample=1):
    """d^2/d(alpha)^2 of log_evidence at one alpha, as trigamma differences."""
    _check_table(table)
    counts, total = _axis(table, which_sample)
    K, a = table.K, float(alpha)
    nz = counts > 0
    out = -K * K * (trigamma(total + K * a) - trigamma(K * a))
    if nz.any():
        out += float(table.nu[nz] @ (trigamma(counts[nz] + a) - trigamma(a)))
    return float(out)


# --- first moments --------------------------------------------------------

def entropy_grid(table, alphas, which_sample=1):
    """Posterior mean entropy of one sample's distribution, over alphas."""
    _check_table(table)
    alphas = _grid_vec(alphas, "alphas")
    counts, total = _axis(table, which_sample)
    x = counts[None, :] + alphas[:, None]
    X = total + table.K * alphas
    w = table.nu[None, :] * x / X[:, None]
    s = delta_psi(X[:, None] + 1.0, x + 1.0)
    return (w * s).sum(axis=1)


def dkl_grid(table, alphas, betas):
    """Posterior mean KL divergence <D(q||t)> on the (alphas, betas) grid."""
    _check_table(table)
    alphas = _grid_vec(alphas, "alphas")
    betas = _grid_vec(betas, "betas")
    x = table.n[None, :] + alphas[:, None]
    X = table.N + table.K * alphas
    y = table.m[None, :] + betas[:, None]
    Y = table.M + table.K * betas
    w = table.nu[None, :] * x / X[:, None]                  # (A, U)
    cross = delta_psi(Y[:, None], y)                        # (B, U)
    ent = delta_psi(X[:, None] + 1.0, x + 1.0)              # (A, U)
    return w @ cross.T - (w * ent).sum(axis=1)[:, None]


def posterior_dkl(table, hp):
    """Posterior mean of D_KL(q||t) at fixed hyperparameters."""
    _check_hp(_check_table(table), hp)
    return float(dkl_grid(table, [hp.alpha], [hp.beta])[0, 0])


def hellinger_sq_grid(table, alphas, betas):
    """Posterior mean squared Hellinger distance on the grid."""
    _check_table(table)
    alphas = _grid_vec(alphas, "alphas")
    betas = _grid_vec(betas, "betas")
    x = table.n[None, :] + alphas[:, None]
    X = table.N + table.K * alphas
    y = table.m[None, :] + betas[:, None]
    Y = table.M + table.K * betas
    # B(1/2, X)/B(1/2, x_i) per category, the posterior mean of sqrt(q_i),
    # is sqrt(x_i/X) exp(h(x_i) - h(X)) with h = log_half_ratio; likewise
    # for t.  Both ratios are <= 1, so no overflow.
    r = table.nu[None, :] * np.sqrt(x / X[:, None]) * np.exp(
        log_half_ratio(x) - log_half_ratio(X)[:, None]
    )
    s = np.sqrt(y / Y[:, None]) * np.exp(
        log_half_ratio(y) - log_half_ratio(Y)[:, None]
    )
    return 1.0 - r @ s.T


def posterior_hellinger_sq(table, hp):
    """Posterior mean of DH^2(q,t) = 1 - sum_i sqrt(q_i t_i); in [0, 1]."""
    _check_hp(_check_table(table), hp)
    return float(hellinger_sq_grid(table, [hp.alpha], [hp.beta])[0, 0])


# --- second moment of DKL -------------------------------------------------

def dkl_squared_grid(table, alphas, betas):
    """<D_KL^2> on the (alphas, betas) grid.

    The category double sum splits into an i=j part and an i!=j part; each
    factors into alpha-only vectors, beta-only vectors, and a handful of
    (A,U)x(U,B) matrix products.  x_i = n_i + alpha being affine in alpha
    lets the mixed single sums collapse to outer products.
    """
    _check_table(table)
    alphas = _grid_vec(alphas, "alphas")
    betas = _grid_vec(betas, "betas")
    nu = table.nu.astype(float)
    K = table.K

    x = table.n[None, :] + alphas[:, None]          # (A, U)
    X = table.N + K * alphas                        # (A,)
    XX1 = X * (X + 1.0)
    y = table.m[None, :] + betas[:, None]           # (B, U)
    Y = table.M + K * betas                         # (B,)

    P = delta_psi(x + 1.0, X[:, None] + 2.0)        # off-diagonal ln q shift
    PD = delta_psi(x + 2.0, X[:, None] + 2.0)       # diagonal ln q shift
    tri_X2 = trigamma(X + 2.0)                      # (A,)
    tri_x2 = trigamma(x + 2.0)                      # (A, U)
    T = delta_psi(y, Y[:, None])                    # (B, U)
    tri_y = trigamma(y)                             # (B, U)
    tri_Y = trigamma(Y)                             # (B,)

    # i = j: weights Omega_ii = x(x+1)/(X(X+1))
    od = nu[None, :] * x * (x + 1.0) / XX1[:, None]
    diag_a = (od * (PD * PD + tri_x2)).sum(axis=1) - tri_X2 * od.sum(axis=1)
    diag = diag_a[:, None]
    diag = diag - 2.0 * ((od * PD) @ T.T)
    diag = diag + od @ (T * T + tri_y).T
    diag = diag - np.outer(od.sum(axis=1), tri_Y)

    # i != j: full nu_u nu_v double sum, then subtract same-row u=v terms.
    nx = nu[None, :] * x                            # (A, U), sums to X
    sa = (nx * P).sum(axis=1)                       # (A,)
    t_base = T @ (nu * table.n)                     # (B,)
    t_slope = T @ nu                                # (B,)
    sxt = t_base[None, :] + alphas[:, None] * t_slope[None, :]   # (A, B)
    full = sa[:, None] * sa[:, None] - 2.0 * sa[:, None] * sxt + sxt * sxt
    full = full - (tri_X2 * X * X)[:, None] - np.outer(X * X, tri_Y)
    full /= XX1[:, None]

    nx2 = nu[None, :] * x * x
    sx2 = nx2.sum(axis=1)                           # (A,)
    corr = ((nx2 * P * P).sum(axis=1) - tri_X2 * sx2)[:, None]
    corr = corr - 2.0 * ((nx2 * P) @ T.T)
    corr = corr + nx2 @ (T * T).T
    corr = corr - np.outer(sx2, tri_Y)
    corr /= XX1[:, None]

    return diag + full - corr


def posterior_dkl_squared(table, hp):
    """Posterior mean of D_KL(q||t)^2 at fixed hyperparameters."""
    _check_hp(_check_table(table), hp)
    return float(dkl_squared_grid(table, [hp.alpha], [hp.beta])[0, 0])
