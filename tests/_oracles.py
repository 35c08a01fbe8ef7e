"""Independent reference implementations used only by the tests.

Everything here is deliberately slow and literal: direct series, brute
force sums over expanded category vectors, and Monte-Carlo posterior
averages.  Test expectations come from these, never from the library
code under test.  The random instances the tests share are drawn here
too.
"""

import math

import numpy as np
from hypothesis import strategies as st


def zhang_series(n, m):
    """The original resampling series for the bias-corrected KL estimate.

    sum_i (n_i/N) [ sum_{v=1..M-m_i} (1/v) prod_{s=1..v} (1 - m_i/(M-s+1))
                  - sum_{v=1..N-n_i} (1/v) prod_{s=1..v} (1 - (n_i-1)/(N-s)) ]
    """
    n = np.asarray(n, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    N = int(n.sum())
    M = int(m.sum())
    total = 0.0
    for ni, mi in zip(n.tolist(), m.tolist()):
        if ni == 0:
            continue
        cross_terms = []
        prod = 1.0
        for v in range(1, M - mi + 1):
            prod *= 1.0 - mi / (M - v + 1)
            cross_terms.append(prod / v)
        ent_terms = []
        prod = 1.0
        for v in range(1, N - ni + 1):
            prod *= 1.0 - (ni - 1) / (N - v)
            ent_terms.append(prod / v)
        total += (ni / N) * (math.fsum(cross_terms) - math.fsum(ent_terms))
    return total


def random_count_pair(rng, max_k=10, max_count=15, min_n=0):
    """A random (n, m, K) instance with entries in [0, max_count]."""
    K = int(rng.integers(2, max_k + 1))
    n = rng.integers(min_n, max_count + 1, size=K)
    m = rng.integers(0, max_count + 1, size=K)
    if n.sum() == 0:
        n[int(rng.integers(0, K))] = 1
    if m.sum() == 0:
        m[int(rng.integers(0, K))] = 1
    return n, m, K


@st.composite
def wide_tables(draw):
    """K from 2 to 1e7, at most 40 listed categories with counts up to
    1e12; either sample may be empty."""
    from bayesdiv.counts import build_table

    K = draw(st.sampled_from([2, 3, 10, 400, 10**4, 10**7]))
    listed = draw(st.integers(0, min(K, 40)))
    sample = st.lists(st.integers(0, 10**12), min_size=listed, max_size=listed)
    sample |= st.just([0] * listed)
    return build_table(draw(sample), draw(sample), K)


def posterior_mc(n, m, K, alpha, beta, draws, seed):
    """Monte-Carlo posterior moments of DKL and DH^2.

    Draws q ~ Dir(n + alpha), t ~ Dir(m + beta) and averages the exact
    divergences.  Returns means and standard errors.
    """
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.asarray(n, dtype=float) + alpha, size=draws)
    t = rng.dirichlet(np.asarray(m, dtype=float) + beta, size=draws)
    dkl = np.sum(q * (np.log(q) - np.log(t)), axis=1)
    hell = 1.0 - np.sum(np.sqrt(q * t), axis=1)
    out = {}
    for name, values in (("dkl", dkl), ("dkl2", dkl**2), ("hellinger_sq", hell)):
        out[name] = float(values.mean())
        out[name + "_se"] = float(values.std(ddof=1) / math.sqrt(draws))
    return out


def expand_counts(table):
    """Per-category (n_i, m_i) vectors of length K from a multiplicity table."""
    ns, ms = [], []
    for ni, mi, nu in zip(table.n.tolist(), table.m.tolist(), table.nu.tolist()):
        ns.extend([ni] * nu)
        ms.extend([mi] * nu)
    return np.array(ns, dtype=np.int64), np.array(ms, dtype=np.int64)


def brute_double_sum(table, f):
    """Direct K x K double sum of f(pair_i, pair_j, i == j)."""
    n, m = expand_counts(table)
    terms = []
    for i in range(len(n)):
        for j in range(len(n)):
            terms.append(f((int(n[i]), int(m[i])), (int(n[j]), int(m[j])), i == j))
    return math.fsum(terms)


def dkl_squared_pairwise(table, alpha, beta):
    """<D_KL(q||t)^2> at fixed (alpha, beta) as a literal K x K pair sum.

    D^2 = sum_ij q_i q_j (ln q_i - ln t_i)(ln q_j - ln t_j) with q and t
    independent.  Each <q_i q_j f(q)> is <q_i q_j> times <f> under the
    Dirichlet shifted by e_i + e_j; log moments use scipy's digamma and
    trigamma directly.
    """
    from scipy.special import digamma, polygamma

    X = table.N + table.K * alpha
    Y = table.M + table.K * beta

    def term(pair_i, pair_j, same):
        d = 1.0 if same else 0.0
        x_i, x_j = pair_i[0] + alpha, pair_j[0] + alpha
        y_i, y_j = pair_i[1] + beta, pair_j[1] + beta
        qq = x_i * (x_j + d) / (X * (X + 1.0))
        s_i, s_j = x_i + 1.0 + d, x_j + 1.0 + d
        lq_i = digamma(s_i) - digamma(X + 2.0)
        lq_j = digamma(s_j) - digamma(X + 2.0)
        lq_pair = lq_i * lq_j + d * polygamma(1, s_i) - polygamma(1, X + 2.0)
        lt_i = digamma(y_i) - digamma(Y)
        lt_j = digamma(y_j) - digamma(Y)
        lt_pair = lt_i * lt_j + d * polygamma(1, y_i) - polygamma(1, Y)
        return qq * (lq_pair - lq_i * lt_j - lq_j * lt_i + lt_pair)

    return brute_double_sum(table, term)


def kl_moments_mpmath(table, alpha, beta, dps=60):
    """<D_KL> and <D_KL^2> at fixed (alpha, beta), at ``dps`` digits.

    The pair terms of ``dkl_squared_pairwise`` summed over table rows u, v
    with weight nu_u nu_v instead of over expanded categories: distinct
    categories i != j give x_i x_j [(lq_i - lt_i)(lq_j - lt_j) - psi_1(X+2)
    - psi_1(Y)], so the u = v rows subtract their own x_u^2 term once per
    category, and each category adds its i = j term.  Here lq_i =
    psi(x_i+1) - psi(X+2) and lt_i = psi(y_i) - psi(Y).
    """
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpf(float(alpha)), mpmath.mpf(float(beta))
        X, Y = table.N + table.K * a, table.M + table.K * b
        psi, psi1 = mpmath.digamma, lambda z: mpmath.polygamma(1, z)
        rows = [(int(n) + a, int(m) + b, int(nu))
                for n, m, nu in zip(table.n, table.m, table.nu)]
        first = mpmath.fsum(
            nu * x / X * (psi(x + 1) - psi(X + 1) - psi(y) + psi(Y)) for x, y, nu in rows
        )
        shared = psi1(X + 2) + psi1(Y)
        d = [psi(x + 1) - psi(X + 2) - psi(y) + psi(Y) for x, y, _ in rows]   # lq - lt
        pairs = mpmath.fsum(
            nu_u * x_u * nu_v * x_v * (d_u * d_v - shared)
            for (x_u, _, nu_u), d_u in zip(rows, d) for (x_v, _, nu_v), d_v in zip(rows, d)
        )
        same_row = mpmath.fsum(
            nu * x * x * (d_u * d_u - shared) for (x, _, nu), d_u in zip(rows, d)
        )
        diag = mpmath.fsum(
            nu * x * (x + 1) * ((psi(x + 2) - psi(X + 2) - psi(y) + psi(Y)) ** 2
                                + psi1(x + 2) - psi1(X + 2) + psi1(y) - psi1(Y))
            for x, y, nu in rows
        )
        second = (pairs - same_row + diag) / (X * (X + 1))
        return float(first), float(second)


def evidence_mpmath(table, alpha, which_sample, dps=40):
    """ln evidence, as documented by log_evidence_grid, and its alpha
    derivative, summed row by row at ``dps`` digits.

    The value is -sum_u nu_u ln B(alpha, c_u) + ln B(K alpha, C) over rows
    with c_u >= 1.  The derivative is returned as its two sums (rows,
    total), the derivative being rows - total: the digamma differences of
    the rows, and K times that of the total.
    """
    import mpmath

    counts, total = (table.n, table.N) if which_sample == 1 else (table.m, table.M)
    with mpmath.workdps(dps):
        a, K, psi = mpmath.mpf(float(alpha)), table.K, mpmath.digamma

        def log_b(x, y):
            return mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)

        rows = [(int(c), int(nu)) for c, nu in zip(counts, table.nu) if c > 0]
        value = -mpmath.fsum(nu * log_b(a, c) for c, nu in rows)
        psi_a = psi(a)
        grad = [mpmath.fsum(nu * (psi(c + a) - psi_a) for c, nu in rows), 0]
        if total > 0:
            value += log_b(K * a, int(total))
            grad[1] = K * (psi(int(total) + K * a) - psi(K * a))
        return float(value), tuple(map(float, grad))


def entropy_mpmath(table, alpha, which_sample, dps=40):
    """Posterior mean entropy of one sample's distribution, row by row."""
    import mpmath

    counts, total = (table.n, table.N) if which_sample == 1 else (table.m, table.M)
    with mpmath.workdps(dps):
        a = mpmath.mpf(float(alpha))
        X = int(total) + table.K * a
        return float(mpmath.fsum(
            int(nu) * (int(c) + a) / X * (mpmath.digamma(X + 1) - mpmath.digamma(int(c) + a + 1))
            for c, nu in zip(counts, table.nu)
        ))


def hellinger_sq_mpmath(table, alpha, beta, dps=40):
    """Posterior mean squared Hellinger distance, row by row: 1 - sum_u nu_u
    <sqrt q_u><sqrt t_u>, each mean a ratio of Gamma functions."""
    import mpmath

    def mean_sqrt(count, total, x):
        c, t = int(count) + x, int(total) + table.K * x
        return mpmath.exp(mpmath.loggamma(c + 0.5) - mpmath.loggamma(c)
                          - mpmath.loggamma(t + 0.5) + mpmath.loggamma(t))

    with mpmath.workdps(dps):
        a, b = mpmath.mpf(float(alpha)), mpmath.mpf(float(beta))
        return float(1 - mpmath.fsum(
            int(nu) * mean_sqrt(n, table.N, a) * mean_sqrt(m, table.M, b)
            for n, m, nu in zip(table.n, table.m, table.nu)
        ))


def prior_crossentropy_slope(beta, K):
    """dB/dbeta = K psi_1(K beta) - psi_1(beta), the slope of the prior mean
    cross-entropy B(beta); negative, as B decreases.  It is the one that
    ``log_weight_kl`` forms, from the package's own trigamma, so that the
    tests that strip it off the weight do not see two roundings of its
    cancelling difference."""
    from bayesdiv.specfun import trigamma

    beta = np.asarray(beta, dtype=float)
    return K * trigamma(K * beta) - trigamma(beta)


def uniform_chain(S, L):
    """The chain whose every transition has probability 1/S.

    Its L-grams are equally likely, so their entropy is exactly L ln S.
    """
    from bayesdiv.synth import MarkovChainSpec

    return MarkovChainSpec(W=np.full((S, S), 1.0 / S), pi=np.full(S, 1.0 / S), L=L)


def lgram_enumeration(spec):
    """All L-gram probabilities of a Markov chain by explicit products."""
    S, L = spec.S, spec.L
    probs = np.zeros(S**L)
    for flat in range(S**L):
        digits = []
        rest = flat
        for _ in range(L):
            digits.append(rest % S)
            rest //= S
        p = spec.pi[digits[0]]
        for prev, nxt in zip(digits, digits[1:]):
            p *= spec.W[nxt, prev]
        probs[flat] = p
    return probs


def _literal_log_evidence(counts, nu, K, alphas):
    """ln[B(counts + alpha) / B(alpha)] as a direct sum of ln Gamma terms."""
    from scipy.special import gammaln

    counts = np.asarray(counts, dtype=float)
    per_row = gammaln(counts[None, :] + alphas[:, None]) - gammaln(alphas)[:, None]
    total = counts @ nu
    return per_row @ nu - gammaln(total + K * alphas) + gammaln(K * alphas)


def row_split_kl(table, panels=8, order=16):
    """dpm KL mean and std, each alpha row's beta integral split at the prior's hinge.

    The KL hyper-prior bends where B(beta) - A(alpha) = ln K.  Composite
    Gauss-Legendre rules (``panels`` panels of ``order`` nodes) cover
    [ln 1e-6, ln 1e6] in ln alpha and, on each alpha row, each side of
    that row's bend in ln beta, found by bisection; so no rule straddles
    the bend, and each converges fast on its smooth side.  The evidence is
    summed literally; the hyper-prior and the moment grids come from the
    library, so what this checks is the quadrature.
    """
    from bayesdiv.hyperprior import log_weight_kl
    from bayesdiv.posterior import kl_moment_grids, prior_mean_crossentropy, prior_mean_entropy

    x, w = np.polynomial.legendre.leggauss(order)

    def rule(lo, hi):   # nodes and weights on each [lo, hi], along the last axis
        cuts = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, panels + 1)
        half = np.diff(cuts)[..., None] / 2.0
        mid = cuts[..., :-1, None] + half
        shape = np.shape(lo) + (panels * order,)
        return (mid + half * x).reshape(shape), (half * w).reshape(shape)

    box = np.array([math.log(1e-6), math.log(1e6)])
    ua, wa = rule(box[:1], box[1:])
    ua, wa = ua[0], wa[0]
    a, K, nu = np.exp(ua), table.K, table.nu.astype(float)
    target = prior_mean_entropy(a, K) + math.log(K)   # the bend: B(beta) = A + ln K
    lo, hi = np.full(len(a), box[0]), np.full(len(a), box[1])
    for _ in range(60):   # B falls in beta: bisect each row for B = target
        mid = (lo + hi) / 2.0
        above = prior_mean_crossentropy(np.exp(mid), K) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    cut = np.clip((lo + hi) / 2.0, box[0], box[1])   # an end if the row has no bend
    left, right = rule(np.full(len(a), box[0]), cut), rule(cut, np.full(len(a), box[1]))
    ub, wb = np.concatenate([left[0], right[0]], 1), np.concatenate([left[1], right[1]], 1)
    b = np.exp(ub)
    log_w = (_literal_log_evidence(table.n, nu, K, a)[:, None] + ua[:, None] + ub
             + _literal_log_evidence(table.m, nu, K, b.ravel()).reshape(b.shape)
             + log_weight_kl(a[:, None], b, K))
    weight = wa[:, None] * wb * np.exp(log_w - log_w.max())
    moments = np.array([[row[0] for row in kl_moment_grids(table, [ai], bi)]
                        for ai, bi in zip(a, b)])
    mean, square = np.einsum("ij,ikj->k", weight, moments) / weight.sum()
    return mean, math.sqrt(max(0.0, square - mean * mean))


def whole_box_mixture(table, kind, nodes=2049, rows=128):
    """Brute-force composite Simpson posterior averages over the whole box.

    Integrates on ``nodes`` (odd) evenly spaced points per axis in ln alpha
    (and ln beta) over [ln 1e-6, ln 1e6], with the weight evidence x
    hyper-prior x Jacobian.  Simpson weights (1, 4, 2, ..., 4, 1) are a
    different rule from the library's end-corrected trapezoid.  Like it,
    they err by O(h^4) where the weight does not vanish at the box edge;
    the plain trapezoid errs by O(h^2) there.  Across the bend of the KL
    prior at z = ln K, though, Simpson errs by O(h^2), as the library's
    rule would without its hinge terms.  ``kind`` is "kl" (returns
    mean and std), "hellinger2" (mean, None) or "entropy" (the one-sample
    NSB mean of table.n, None).
    Moment grids are evaluated ``rows`` alpha rows at a time.  They and
    the hyper-prior come from the library, which other tests check
    against Monte Carlo and mpmath; what this checks is the quadrature.
    """
    from bayesdiv.hyperprior import (
        log_weight_hellinger,
        log_weight_kl,
        prior_entropy_slope,
    )
    from bayesdiv.posterior import entropy_grid, hellinger_sq_grid, kl_moment_grids

    u = np.linspace(math.log(1e-6), math.log(1e6), nodes)
    a = np.exp(u)
    simpson = np.ones(nodes)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    nu = table.nu.astype(float)
    ev_a = _literal_log_evidence(table.n, nu, table.K, a)
    if kind == "entropy":
        log_w = ev_a + np.log(prior_entropy_slope(a, table.K)) + u
        w = np.exp(log_w - log_w.max()) * simpson
        return float(w @ entropy_grid(table, a, 1) / w.sum()), None
    ev_b = _literal_log_evidence(table.m, nu, table.K, a)
    log_prior = log_weight_kl if kind == "kl" else log_weight_hellinger
    log_w = (
        ev_a[:, None] + ev_b[None, :] + log_prior(a[:, None], a[None, :], table.K)
        + u[:, None] + u[None, :]
    )
    w = np.exp(log_w - log_w.max()) * np.outer(simpson, simpson)
    first = second = 0.0
    for lo in range(0, nodes, rows):
        block = slice(lo, lo + rows)
        if kind == "kl":
            mean, square = kl_moment_grids(table, a[block], a)
            first += float((w[block] * mean).sum())
            second += float((w[block] * square).sum())
        else:
            first += float((w[block] * hellinger_sq_grid(table, a[block], a)).sum())
    total = float(w.sum())
    mean = first / total
    if kind == "kl":
        return mean, math.sqrt(max(0.0, second / total - mean * mean))
    return mean, None
