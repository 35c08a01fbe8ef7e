"""Posterior expectations under symmetric Dirichlet priors.

Sample 1 counts n with concentration alpha describe the distribution q;
sample 2 counts m with concentration beta describe t.  All expectations
below are over the product posterior Dir(n + alpha) x Dir(m + beta) at
*fixed* hyperparameters; mixing over (alpha, beta) happens in
``bayesdiv.estimators``.

Each quantity is computed once, by an evaluator vectorized over
hyperparameter vectors (alphas (A,), betas (B,) -> grids (A, B)); the
scalar contract functions evaluate it at one point.  One evaluator,
``kl_moment_grids``, serves both moments of D_KL: the mean is read off
the difference that the second moment squares, and ``dkl_grid`` and
``dkl_squared_grid`` are its views.  The grid forms factor every double
sum into per-axis pieces combined by matrix products, so whole
quadrature grids cost a few BLAS calls.

A row term depends on the first sample only through n and on the second
only through m, so every special function is evaluated on one sample's
distinct counts, the table's levels: on (A, Un) or (B, Um) arrays, where
Un and Um lie far below the U rows of a large table.  The evidence and
the entropy, sums over one sample, contract with the nu summed per level,
as do the KL moments' one-sample sums.  Their cross terms sum the m-side
factors with nu over each n level's rows; the squared Hellinger grid
gathers both sides to the rows and keeps its (A,U)x(U,B) product.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .counts import MultiplicityTable
from .specfun import (_betaln, _own_parts, check_positive, delta_psi, float_if_scalar,
                      log_half_ratio, stacked, trigamma)

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
    """One sample's (levels, total) of a checked table."""
    check_table(table)
    if which_sample == 1:
        return table.n_levels, table.N
    if which_sample == 2:
        return table.m_levels, table.M
    raise ValueError("which_sample must be 1 or 2")


def _grid_vec(values, name):
    arr = np.atleast_1d(check_positive(values, name))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    return arr


def _sample_params(table, values, which_sample, name):
    """Checked concentrations v, x = level + v (a row per v), X = total + K v,
    and the sample's levels."""
    levels, total = _axis(table, which_sample)
    v = _grid_vec(values, name)
    return v, levels.values[None, :] + v[:, None], total + table.K * v, levels


def _params(table, alphas, betas):
    """Checked (alphas, x, X, n levels, y, Y, m levels) of the two posteriors."""
    alphas, x, X, n_levels = _sample_params(table, alphas, 1, "alphas")
    _, y, Y, m_levels = _sample_params(table, betas, 2, "betas")
    return alphas, x, X, n_levels, y, Y, m_levels


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

# a table's evidence term sets, each made once: a table never changes and
# compares by identity, and its entry goes when the table does
_TERMS = weakref.WeakKeyDictionary()


def _evidence_terms(table, which_sample, gradient=False):
    """One sample's evidence terms w ln B(c alpha, n) as (T,) arrays n, w, c:
    the levels' (c = 1, w = -nu), then the total's (K, 1).  With
    ``gradient`` every term comes with its weight -w c in the alpha
    derivative; else only the terms with n >= 1 come, as ln B(x, 0) is
    infinite.
    """
    levels, total = _axis(table, which_sample)
    terms = _TERMS.setdefault(table, {})
    key = (which_sample, gradient)
    if key not in terms:
        n = np.append(levels.values, total).astype(float)
        w = np.append(-levels.nu.astype(float), 1.0)
        c = np.append(np.ones(len(levels.values)), float(table.K))
        seen = n > 0
        terms[key] = (n, -(w * c), c) if gradient else (n[seen], w[seen], c[seen])
    return terms[key]


def _evidence_sums(table, alphas, which_sample, name, gradient):
    """Each alpha's sum over its own sample's evidence terms, one kernel call for all.

    ``which_sample`` is 1, 2, or an array like ``alphas`` naming each
    alpha's sample.  The sum is of w ln B(c alpha, n) over the terms with
    n >= 1, or with ``gradient`` of its alpha derivative -w c (psi(c alpha
    + n) - psi(c alpha)) over every term.  Each alpha's terms form a row,
    summed as a one-sample grid sums it.
    """
    check_table(table)
    alphas = _grid_vec(alphas, name)
    try:   # a scalar names the sample of every alpha
        which = np.broadcast_to(which_sample, alphas.shape)
    except ValueError:
        raise ValueError(f"which_sample must be 1, 2 or an array like {name}") from None
    blocks = []   # per sample: where its alphas are, and its terms
    for sample in (1, 2):
        at = np.flatnonzero(which == sample)
        if len(at):
            blocks.append((at, *_evidence_terms(table, sample, gradient)))
    if sum(len(at) for at, *_ in blocks) < len(alphas):
        raise ValueError("which_sample must be 1 or 2")
    out = np.zeros(len(alphas))
    blocks = [block for block in blocks if len(block[1])]   # a sample with no terms sums to 0
    if not blocks:
        return out
    if gradient:
        rows = [(c * alphas[at, None], n) for at, n, _, c in blocks]   # x = c alpha, and n
        values = delta_psi(np.concatenate([(x + n).ravel() for x, n in rows]),
                           np.concatenate([x.ravel() for x, _ in rows]))
    else:
        # what betaln needs of one argument alone is formed once per concentration
        # alpha and K alpha and per count, and read off on the grid
        once = np.concatenate([alphas, table.K * alphas] + [n for _, n, *_ in blocks])
        values = _betaln(_own_parts(once), *_grid_layout(len(alphas), blocks))
    lo = 0
    for at, n, w, *_ in blocks:
        out[at] = (w * values[lo:lo + len(at) * len(n)].reshape(len(at), len(n))).sum(axis=1)
        lo += len(at) * len(n)
    return out


def _grid_layout(rows, blocks):
    """Where ``_evidence_sums`` reads each grid element's x and n off its values:
    ``rows`` concentrations alpha, their K alpha, then each block's counts.  A
    row's x is alpha on its level terms and K alpha on its last term, the
    total's."""
    at_x, at_n, lo = [], [], 2 * rows
    for at, n, *_ in blocks:
        at_x.append((at[:, None] + rows * (np.arange(len(n)) == len(n) - 1)).ravel())
        at_n.append(np.tile(np.arange(lo, lo + len(n)), len(at)))
        lo += len(n)
    return np.concatenate(at_x), np.concatenate(at_n)


def log_evidence_grid(table, alphas, which_sample=1):
    """ln P(counts | alpha) over a vector of alphas, up to a constant.

    The value is ln[B(counts + alpha) / B(alpha)] less every alpha-free
    term: each ln Gamma(x + n) - ln Gamma(x) is taken as
    ln Gamma(n) - ln B(x, n) and its ln Gamma(n) dropped.  That leaves the
    terms w ln B(c alpha, n) of ``_evidence_terms``, -nu ln B(alpha, n) per
    level and then ln B(K alpha, N), summed over those with n >= 1 (ln B(x, 0)
    is infinite).  Differencing ln Gamma values of size N ln N would lose the
    digits that separate alphas on a flat evidence; this form keeps them.
    The dropped constant cancels in every posterior ratio.  ``which_sample``
    may also be an array like ``alphas`` naming each alpha's sample: both
    samples' evidence then comes from one ``betaln`` call.
    """
    return _evidence_sums(table, alphas, which_sample, "alphas", False)


def log_evidence(table, alpha, which_sample=1):
    """ln P(counts | alpha) for one sample, up to an alpha-free constant."""
    return float(log_evidence_grid(table, [alpha], which_sample)[0])


def log_evidence_gradient(table, alpha, which_sample=1):
    """d/d(alpha) of log_evidence, cancellation-safe: a term w ln B(c alpha, n)
    adds w c (psi(c alpha) - psi(c alpha + n)), exactly 0 at n = 0, so one
    ``delta_psi`` call serves them all.  ``alpha`` may be a scalar or a 1-d
    array, and ``which_sample`` an array like it, as in
    ``log_evidence_grid``; the result has alpha's shape.
    """
    out = _evidence_sums(table, alpha, which_sample, "alpha", True)
    return float_if_scalar(out.reshape(np.shape(alpha)), alpha)


# --- first moments --------------------------------------------------------

def entropy_grid(table, alphas, which_sample=1):
    """Posterior mean entropy of one sample's distribution, over alphas."""
    _, x, X, levels = _sample_params(table, alphas, which_sample, "alphas")
    s = x / X[:, None] * delta_psi(X[:, None] + 1.0, x + 1.0)
    return s @ levels.nu.astype(float)


def hellinger_sq_grid(table, alphas, betas):
    """Posterior mean squared Hellinger distance on the grid."""
    _, x, X, n_levels, y, Y, m_levels = _params(table, alphas, betas)
    # B(1/2, X)/B(1/2, x_i) per category, the posterior mean of sqrt(q_i),
    # is sqrt(x_i/X) exp(h(x_i) - h(X)) with h = log_half_ratio; likewise
    # for t.  Both ratios are <= 1, so no overflow.
    i, j = n_levels.index, m_levels.index
    hx, hX, hy, hY = stacked(log_half_ratio, (x,), (X,), (y,), (Y,))
    r = table.nu * np.sqrt(x / X[:, None]).take(i, axis=1) * np.exp(
        hx - hX[:, None]
    ).take(i, axis=1)
    s = np.sqrt(y / Y[:, None]) * np.exp(hy - hY[:, None])
    return 1.0 - r @ s.take(j, axis=1).T


def posterior_hellinger_sq(table, hp):
    """Posterior mean of DH^2(q,t) = 1 - sum_i sqrt(q_i t_i); in [0, 1]."""
    return _at_hp(hellinger_sq_grid, table, hp)


# --- the two moments of DKL -----------------------------------------------

def kl_moment_grids(table, alphas, betas):
    """<D_KL> and <D_KL^2> on the (alphas, betas) grid, from one pass.

    With X = N + K alpha, Y = M + K beta, x_i = n_i + alpha, y_i = m_i +
    beta, p_i = psi(x_i+1) - psi(X+2) and t_i = psi(y_i) - psi(Y), the
    category double sum reduces to

        X(X+1) <D^2> = d^2 + sum_i x_i [(x_i+1)(p_i + 1/(x_i+1) - t_i)^2
                       - x_i (p_i - t_i)^2 + (x_i+1)(psi_1(x_i+2) + psi_1(y_i))]
                       - X(X+1) (psi_1(X+2) + psi_1(Y))

    with d = sum_i x_i (p_i - t_i).  As psi(X+2) = psi(X+1) + 1/(X+1), the
    same d gives <D> = d/X + 1/(X+1).  With x_i = n_i + alpha affine in
    alpha, d is an alpha row less an alpha-affine beta column; expanding
    the single sum in powers of t_i leaves sums over one sample's levels and
    three cross terms sum_u nu_u f(n_u) g(m_u), which lie together in one
    (A, 3Un)x(3Un, B) product: rows sort by n, so the nu g of each n level's
    rows are summed in one pass.  p and t are both shifted by ln K, which
    cancels in every p - t, so that near the uniform distribution the
    expanded terms stay small and lose few digits.
    """
    alphas, x, X, n_levels, y, Y, m_levels = _params(table, alphas, betas)
    nu = table.nu.astype(float)
    n_nu, m_nu = n_levels.nu.astype(float), m_levels.nu.astype(float)

    XX1 = X * (X + 1.0)
    p, t = stacked(delta_psi, (x + 1.0, np.broadcast_to(X[:, None] + 2.0, x.shape)),
                   (y, np.broadcast_to(Y[:, None], y.shape)))
    psi1, psi1_X, psi1_Y, psi1_y = stacked(trigamma, (x + 2.0,), (X + 2.0,), (Y,), (y,))
    p += np.log(table.K)                                                    # (A, Un)
    t += np.log(table.K)                                                    # (B, Um)

    # d = sum_u nu_u x_u p_u - (t . nu n + alpha t . nu), an (A, B) difference
    out = np.multiply.outer(alphas, t @ m_nu)
    out += t @ np.bincount(m_levels.index, nu * table.n, len(m_nu))
    np.subtract(((x * p) @ n_nu)[:, None], out, out=out)
    mean = out / X[:, None]
    mean += (1.0 / (X + 1.0))[:, None]
    out *= out
    out /= XX1[:, None]
    row = x * (p * p + 2.0 * p + 1.0 / (x + 1.0) + (x + 1.0) * psi1)
    out += ((row @ n_nu) / XX1 - psi1_X)[:, None]
    out -= psi1_Y
    # cross terms sum_u nu_u f(n_u) g(m_u): nu g summed over each n level's rows
    w = x / XX1[:, None]
    f = np.stack((-2.0 * w * (p + 1.0), w, w * (x + 1.0)), axis=2)          # (A, Un, 3)
    g = np.stack((t, t * t, psi1_y), axis=1).T.take(m_levels.index, axis=0)  # (U, 3, B)
    g *= nu[:, None, None]
    starts = np.flatnonzero(np.diff(n_levels.index, prepend=-1))
    out += f.reshape(len(alphas), -1) @ np.add.reduceat(g, starts).reshape(-1, len(Y))
    return mean, out


def dkl_grid(table, alphas, betas):
    """Posterior mean KL divergence <D(q||t)> on the (alphas, betas) grid."""
    return kl_moment_grids(table, alphas, betas)[0]


def posterior_dkl(table, hp):
    """Posterior mean of D_KL(q||t) at fixed hyperparameters."""
    return _at_hp(dkl_grid, table, hp)


def dkl_squared_grid(table, alphas, betas):
    """<D_KL^2> on the (alphas, betas) grid."""
    return kl_moment_grids(table, alphas, betas)[1]


def posterior_dkl_squared(table, hp):
    """Posterior mean of D_KL(q||t)^2 at fixed hyperparameters."""
    return _at_hp(dkl_squared_grid, table, hp)
