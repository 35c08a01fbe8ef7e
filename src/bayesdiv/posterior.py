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
from .specfun import check_positive, delta_psi, log_half_ratio, trigamma

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
        check_positive(self.alpha, "alpha")
        check_positive(self.beta, "beta")
        check_K(self.K)


def check_K(K):
    """``K`` as an int; ValueError unless it is an integer >= 2."""
    if not isinstance(K, (int, np.integer)) or K < 2:
        raise ValueError("K must be an integer >= 2")
    return int(K)


def check_table(table):
    """``table``; ValueError unless it is a MultiplicityTable."""
    if not isinstance(table, MultiplicityTable):
        raise ValueError("expected a MultiplicityTable")
    return table


def _at_hp(grid, table, hp):
    """``grid`` evaluated at the one point (hp.alpha, hp.beta)."""
    if not isinstance(hp, HyperParams):
        raise ValueError("expected HyperParams")
    if hp.K != check_table(table).K:
        raise ValueError(f"hyperparameter K={hp.K} != table K={table.K}")
    return float(grid(table, [hp.alpha], [hp.beta])[0, 0])


def _axis(table, which_sample):
    """One sample's (counts, total) of a checked table."""
    check_table(table)
    if which_sample == 1:
        return table.n, table.N
    if which_sample == 2:
        return table.m, table.M
    raise ValueError("which_sample must be 1 or 2")


def _grid_vec(values, name):
    arr = np.atleast_1d(check_positive(values, name))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    return arr


def _sample_params(table, values, which_sample, name):
    """Checked concentrations v, x = counts + v (a row per v), X = total + K v."""
    counts, total = _axis(table, which_sample)
    v = _grid_vec(values, name)
    return v, counts[None, :] + v[:, None], total + table.K * v


def _params(table, alphas, betas):
    """Checked (alphas, betas, x, X, y, Y) of the two samples' posteriors."""
    alphas, x, X = _sample_params(table, alphas, 1, "alphas")
    betas, y, Y = _sample_params(table, betas, 2, "betas")
    return alphas, betas, x, X, y, Y


# --- prior means ----------------------------------------------------------

def prior_mean_entropy(alpha, K):
    """Prior expectation of the entropy of q: always below ln K."""
    a = check_positive(alpha, "alpha")
    return delta_psi(a * K + 1.0, a + 1.0)


def prior_mean_crossentropy(beta, K):
    """Prior expectation of the cross-entropy -sum q ln t: always above ln K."""
    b = check_positive(beta, "beta")
    return delta_psi(b * K, b)


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
    counts, total = _axis(table, which_sample)
    alphas = _grid_vec(alphas, "alphas")
    seen = counts > 0
    n = counts[seen].astype(float)
    out = -(_sp.betaln(alphas[:, None], n) @ table.nu[seen].astype(float))
    if total > 0:
        out += _sp.betaln(table.K * alphas, float(total))
    return out


def log_evidence(table, alpha, which_sample=1):
    """ln P(counts | alpha) for one sample, up to an alpha-free constant."""
    return float(log_evidence_grid(table, [alpha], which_sample)[0])


def log_evidence_gradient(table, alpha, which_sample=1):
    """d/d(alpha) of log_evidence; analytic, cancellation-safe.

    ``alpha`` may be a scalar or a 1-d array; the result has its shape.
    """
    counts, total = _axis(table, which_sample)
    av = _grid_vec(alpha, "alpha")
    K = table.K
    nz = counts > 0
    out = -K * delta_psi(total + K * av, K * av)
    if nz.any():
        per_pair = delta_psi(counts[nz][None, :] + av[:, None], av[:, None])
        out += per_pair @ table.nu[nz].astype(float)
    return float(out[0]) if np.ndim(alpha) == 0 else out


def log_evidence_curvature(table, alpha, which_sample=1):
    """d^2/d(alpha)^2 of log_evidence at one alpha, as trigamma differences."""
    counts, total = _axis(table, which_sample)
    K, a = table.K, float(check_positive(alpha, "alpha"))
    nz = counts > 0
    out = -K * K * (trigamma(total + K * a) - trigamma(K * a))
    if nz.any():
        out += float(table.nu[nz] @ (trigamma(counts[nz] + a) - trigamma(a)))
    return float(out)


# --- first moments --------------------------------------------------------

def entropy_grid(table, alphas, which_sample=1):
    """Posterior mean entropy of one sample's distribution, over alphas."""
    _, x, X = _sample_params(table, alphas, which_sample, "alphas")
    w = table.nu[None, :] * x / X[:, None]
    s = delta_psi(X[:, None] + 1.0, x + 1.0)
    return (w * s).sum(axis=1)


def dkl_grid(table, alphas, betas):
    """Posterior mean KL divergence <D(q||t)> on the (alphas, betas) grid."""
    _, _, x, X, y, Y = _params(table, alphas, betas)
    w = table.nu[None, :] * x / X[:, None]                  # (A, U)
    cross = delta_psi(Y[:, None], y)                        # (B, U)
    ent = delta_psi(X[:, None] + 1.0, x + 1.0)              # (A, U)
    return w @ cross.T - (w * ent).sum(axis=1)[:, None]


def posterior_dkl(table, hp):
    """Posterior mean of D_KL(q||t) at fixed hyperparameters."""
    return _at_hp(dkl_grid, table, hp)


def hellinger_sq_grid(table, alphas, betas):
    """Posterior mean squared Hellinger distance on the grid."""
    _, _, x, X, y, Y = _params(table, alphas, betas)
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
    return _at_hp(hellinger_sq_grid, table, hp)


# --- second moment of DKL -------------------------------------------------

def dkl_squared_grid(table, alphas, betas):
    """<D_KL^2> on the (alphas, betas) grid.

    With X = N + K alpha, Y = M + K beta, x_i = n_i + alpha, y_i = m_i +
    beta, p_i = psi(x_i+1) - psi(X+2) and t_i = psi(y_i) - psi(Y), the
    category double sum reduces to

        X(X+1) <D^2> = d^2 + sum_i x_i [(x_i+1)(p_i + 1/(x_i+1) - t_i)^2
                       - x_i (p_i - t_i)^2 + (x_i+1)(psi_1(x_i+2) + psi_1(y_i))]
                       - X(X+1) (psi_1(X+2) + psi_1(Y))

    with d = sum_i x_i (p_i - t_i).  Since x_i = n_i + alpha is affine in
    alpha, d is an alpha row less an alpha-affine beta column; expanding
    the single sum in powers of t_i leaves an alpha row and three
    (A,U)x(U,B) matrix products.  p and t are both shifted by ln K, which
    cancels in every p - t, so that near the uniform distribution the
    expanded terms stay small and lose few digits.
    """
    alphas, _, x, X, y, Y = _params(table, alphas, betas)   # x (A, U), y (B, U)
    nu = table.nu.astype(float)
    K = table.K

    XX1 = X * (X + 1.0)
    p = delta_psi(x + 1.0, X[:, None] + 2.0) + np.log(K)   # (A, U)
    t = delta_psi(y, Y[:, None]) + np.log(K)              # (B, U)
    nx = nu[None, :] * x                            # (A, U), sums to X

    # d = sum_u nu_u x_u p_u - (t . nu n + alpha t . nu), an (A, B) difference
    out = np.multiply.outer(alphas, t @ nu)
    out += t @ (nu * table.n)
    np.subtract((nx * p).sum(axis=1)[:, None], out, out=out)
    out *= out
    out /= XX1[:, None]
    row = nx * (p * p + 2.0 * p + 1.0 / (x + 1.0) + (x + 1.0) * trigamma(x + 2.0))
    out += (row.sum(axis=1) / XX1 - trigamma(X + 2.0))[:, None]
    out -= trigamma(Y)
    w = nx / XX1[:, None]
    out += (-2.0 * w * (p + 1.0)) @ t.T
    out += w @ (t * t).T
    out += (w * (x + 1.0)) @ trigamma(y).T
    return out


def posterior_dkl_squared(table, hp):
    """Posterior mean of D_KL(q||t)^2 at fixed hyperparameters."""
    return _at_hp(dkl_squared_grid, table, hp)
