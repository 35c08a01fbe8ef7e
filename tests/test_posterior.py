"""Posterior moments under Dirichlet priors: hand values, Monte-Carlo
oracles, and scalar/grid agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesdiv.counts import build_table
from bayesdiv.estimators import _canonical_orientation
from bayesdiv.hyperprior import _log_g
from bayesdiv.posterior import (
    HyperParams,
    dkl_grid,
    dkl_squared_grid,
    entropy_grid,
    hellinger_sq_grid,
    kl_moment_grids,
    log_evidence,
    log_evidence_curvature,
    log_evidence_grid,
    log_evidence_gradient,
    posterior_dkl,
    posterior_dkl_squared,
    posterior_hellinger_sq,
    prior_mean_crossentropy,
    prior_mean_entropy,
)
from bayesdiv.synth import sample_dirichlet, sample_multinomial

from _oracles import (
    dkl_squared_pairwise,
    entropy_mpmath,
    evidence_mpmath,
    hellinger_sq_mpmath,
    kl_moments_mpmath,
    posterior_mc,
    random_count_pair,
    wide_tables,
)


def _hp(alpha, beta, K):
    return HyperParams(alpha=alpha, beta=beta, K=K)


# the 33 nodes per axis of the first whole-box scan
_BOX_NODES = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 33))


# --- hyperparameters ---------------------------------------------------------

def test_hyperparams_validation():
    with pytest.raises(ValueError):
        _hp(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        _hp(1.0, -2.0, 3)
    with pytest.raises(ValueError):
        _hp(math.inf, 1.0, 3)
    with pytest.raises(ValueError):
        _hp(1.0, 1.0, 1)


# --- evidence ---------------------------------------------------------------

def test_log_evidence_empty_table_is_zero():
    table = build_table([], [], 4)
    for alpha in (0.01, 1.0, 250.0):
        assert log_evidence(table, alpha, 1) == pytest.approx(0.0, abs=1e-14)


def test_log_evidence_single_count_example():
    # K=2, n=(1,0), alpha=1: ln[Gamma(2)Gamma(1)/Gamma(3)] - ln[Gamma(1)^2/Gamma(2)]
    table = build_table([1, 0], [0, 0], 2)
    assert log_evidence(table, 1.0, 1) == pytest.approx(math.log(0.5), rel=1e-14, abs=0)


def test_log_evidence_grid_matches_scalar():
    rng = np.random.default_rng(3)
    n = rng.integers(0, 12, size=9)
    m = rng.integers(0, 12, size=9)
    table = build_table(n, m, 14)
    alphas = 10.0 ** np.linspace(-4, 4, 17)
    for which in (1, 2):
        grid = log_evidence_grid(table, alphas, which)
        scalar = np.array([log_evidence(table, a, which) for a in alphas])
        np.testing.assert_allclose(grid, scalar, rtol=1e-11, atol=1e-9)


@pytest.mark.parametrize("K", [10**4, 10**7])
def test_log_evidence_grid_matches_mpmath_at_large_concentrations(K):
    # the documented value: -sum_i nu ln B(alpha, n_i) + ln B(K alpha, N)
    import mpmath

    mpmath.mp.dps = 60
    counts = np.zeros(5, dtype=np.int64)
    counts[:4] = [10**12, 10**7, 7, 1]
    table = build_table(counts, counts, K)
    for alpha in (1e3, 1e6):
        a = mpmath.mpf(alpha)

        def log_b(x, y):
            return mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)

        truth = log_b(K * a, table.N)
        for n, nu in zip(table.n.tolist(), table.nu.tolist()):
            if n:
                truth -= nu * log_b(a, n)
        got = float(log_evidence_grid(table, [alpha], 1)[0])
        assert abs(got - float(truth)) <= 1e-9 * max(1.0, abs(float(truth)))


def test_log_evidence_gradient_matches_finite_differences():
    table = build_table([5, 2, 0, 1], [1, 1, 3, 0], 6)
    for which in (1, 2):
        for alpha in (0.05, 1.0, 40.0):
            h = 1e-6 * alpha
            fd = (
                log_evidence(table, alpha + h, which)
                - log_evidence(table, alpha - h, which)
            ) / (2 * h)
            got = log_evidence_gradient(table, alpha, which)
            # the FD oracle itself carries ~1e-6 relative cancellation noise
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_log_evidence_gradient_accepts_alpha_vectors():
    table = build_table([5, 2, 0, 1, 40], [1, 1, 3, 0, 0], 9)
    alphas = np.array([1e-6, 0.05, 1.0, 40.0, 1e6])
    for which in (1, 2):
        got = log_evidence_gradient(table, alphas, which)
        assert got.shape == alphas.shape
        want = [log_evidence_gradient(table, float(a), which) for a in alphas]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    empty = build_table([0, 0], [0, 0], 2)
    np.testing.assert_array_equal(log_evidence_gradient(empty, alphas), 0.0)


def test_log_evidence_curvature_matches_gradient_differences():
    table = build_table([5, 2, 0, 1], [1, 1, 3, 0], 6)
    for which in (1, 2):
        for alpha in (0.05, 1.0, 40.0):
            h = 1e-5 * alpha
            fd = (
                log_evidence_gradient(table, alpha + h, which)
                - log_evidence_gradient(table, alpha - h, which)
            ) / (2 * h)
            got = log_evidence_curvature(table, alpha, which)
            assert got == pytest.approx(fd, rel=1e-7, abs=0)


# --- prior means --------------------------------------------------------------

def test_prior_mean_entropy_hand_value():
    # A(1) at K=2 is psi(3) - psi(2) = 1/2
    assert prior_mean_entropy(1.0, 2) == pytest.approx(0.5, abs=1e-14)


def test_prior_mean_crossentropy_hand_value():
    # B(1) at K=2 is psi(2) - psi(1) = 1
    assert prior_mean_crossentropy(1.0, 2) == pytest.approx(1.0, abs=1e-14)


def test_prior_means_bracket_log_k():
    for K in (2, 20, 400):
        for x in 10.0 ** np.linspace(-3, 3, 13):
            assert prior_mean_entropy(x, K) < math.log(K)
            assert prior_mean_crossentropy(x, K) > math.log(K)


def test_prior_mean_entropy_increases_with_concentration():
    xs = 10.0 ** np.linspace(-3, 3, 40)
    values = prior_mean_entropy(xs, 50)
    assert np.all(np.diff(values) > 0)


# --- posterior DKL -------------------------------------------------------------

def test_posterior_dkl_empty_table_is_prior_mean_difference():
    table = build_table([], [], 2)
    assert posterior_dkl(table, _hp(1.0, 1.0, 2)) == pytest.approx(0.5, abs=1e-13)


def test_posterior_dkl_single_observation_example():
    # K=2, n=(1,0), m=(0,1), alpha=beta=1 works out to 2/3 by hand
    table = build_table([1, 0], [0, 1], 2)
    assert posterior_dkl(table, _hp(1.0, 1.0, 2)) == pytest.approx(2 / 3, abs=1e-13)


def test_posterior_dkl_nonnegative_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n, m, K = random_count_pair(rng, max_k=20, max_count=30)
        alpha, beta = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=2))
        value = posterior_dkl(build_table(n, m, K), _hp(alpha, beta, K))
        assert value >= 0.0


@settings(max_examples=40, deadline=None)
@given(wide_tables())
def test_posterior_dkl_nonnegative_on_wide_tables(table):
    mean, _ = kl_moment_grids(table, _BOX_NODES, _BOX_NODES)
    assert (mean >= 0.0).all()


def test_posterior_dkl_is_asymmetric():
    table = build_table([6, 1, 0], [0, 2, 4], 3)
    forward = posterior_dkl(table, _hp(0.5, 2.0, 3))
    swapped = posterior_dkl(build_table([0, 2, 4], [6, 1, 0], 3), _hp(2.0, 0.5, 3))
    assert abs(forward - swapped) > 1e-3


def test_posterior_dkl_permutation_invariant():
    rng = np.random.default_rng(8)
    n = rng.integers(0, 10, size=7)
    m = rng.integers(0, 10, size=7)
    perm = rng.permutation(7)
    hp = _hp(0.7, 1.9, 7)
    a = posterior_dkl(build_table(n, m, 7), hp)
    b = posterior_dkl(build_table(n[perm], m[perm], 7), hp)
    assert a == pytest.approx(b, rel=0, abs=0)


# --- Monte-Carlo oracles ---------------------------------------------------------

def test_first_moments_match_monte_carlo():
    # <q_i> and <ln q_i> under q ~ Dir(n + alpha)
    from bayesdiv.specfun import delta_psi

    n = np.array([4, 0, 1, 2])
    K, alpha = 4, 0.6
    rng = np.random.default_rng(23)
    draws = rng.dirichlet(n + alpha, size=200_000)
    X = n.sum() + K * alpha
    for i in range(K):
        mean_q = (n[i] + alpha) / X
        se = draws[:, i].std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws[:, i].mean() - mean_q) < 3 * se
        log_draws = np.log(draws[:, i])
        mean_log = delta_psi(n[i] + alpha, X)
        se = log_draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(log_draws.mean() - mean_log) < 3 * se


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
def test_posterior_moments_match_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    n, m, K = random_count_pair(rng, max_k=8, max_count=10)
    alpha = float(np.exp(rng.uniform(-1.5, 1.5)))
    beta = float(np.exp(rng.uniform(-1.5, 1.5)))
    table = build_table(n, m, K)
    hp = _hp(alpha, beta, K)
    mc = posterior_mc(n, m, K, alpha, beta, draws=100_000, seed=seed + 7000)
    assert abs(posterior_dkl(table, hp) - mc["dkl"]) < 3 * mc["dkl_se"]
    assert abs(posterior_dkl_squared(table, hp) - mc["dkl2"]) < 3 * mc["dkl2_se"]
    assert abs(posterior_hellinger_sq(table, hp) - mc["hellinger_sq"]) < 3 * mc["hellinger_sq_se"]


def test_dkl_squared_on_empty_table_matches_prior_monte_carlo():
    table = build_table([], [], 2)
    got = posterior_dkl_squared(table, _hp(1.0, 1.0, 2))
    mc = posterior_mc([0, 0], [0, 0], 2, 1.0, 1.0, draws=1_000_000, seed=99)
    assert abs(got - mc["dkl2"]) < 3 * mc["dkl2_se"]


def test_posterior_variance_is_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, m, K = random_count_pair(rng, max_k=7, max_count=12)
        alpha, beta = np.exp(rng.uniform(-2, 2, size=2))
        table = build_table(n, m, K)
        hp = _hp(float(alpha), float(beta), K)
        second = posterior_dkl_squared(table, hp)
        first = posterior_dkl(table, hp)
        assert second - first * first >= -1e-10


@settings(max_examples=40, deadline=None)
@given(wide_tables())
def test_posterior_variance_is_nonnegative_on_wide_tables(table):
    mean, second = kl_moment_grids(table, _BOX_NODES, _BOX_NODES)
    assert (second >= mean * mean).all()


# --- Hellinger and entropy -------------------------------------------------------

def test_posterior_hellinger_empty_table_half_concentration():
    table = build_table([], [], 2)
    want = 1.0 - 8.0 / math.pi**2
    assert posterior_hellinger_sq(table, _hp(0.5, 0.5, 2)) == pytest.approx(
        want, abs=1e-13
    )


def test_posterior_hellinger_empty_table_is_prior_identity():
    table = build_table([], [], 9)
    for alpha, beta in [(0.2, 3.0), (1.0, 1.0), (15.0, 0.05)]:
        want = 1.0 - np.exp(_log_g(alpha, 9) + _log_g(beta, 9))
        got = posterior_hellinger_sq(table, _hp(alpha, beta, 9))
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_posterior_hellinger_orders_identical_before_disjoint():
    same = build_table([3, 2, 1], [3, 2, 1], 3)
    disjoint = build_table([3, 2, 1], [0, 0, 0], 3)
    disjoint = build_table([3, 2, 1, 0, 0, 0], [0, 0, 0, 1, 2, 3], 6)
    hp3 = _hp(1.0, 1.0, 3)
    hp6 = _hp(1.0, 1.0, 6)
    assert posterior_hellinger_sq(same, hp3) < posterior_hellinger_sq(disjoint, hp6)


def test_posterior_hellinger_in_unit_interval():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n, m, K = random_count_pair(rng, max_k=12, max_count=25)
        alpha, beta = np.exp(rng.uniform(-2, 2, size=2))
        value = posterior_hellinger_sq(build_table(n, m, K), _hp(float(alpha), float(beta), K))
        assert 0.0 <= value < 1.0


def test_hellinger_grid_matches_mpmath():
    # 1 - sum_i nu_i <sqrt q_i><sqrt t_i> with the B(1/2, .) ratios at 50
    # digits.  Near alpha = beta = 1e6 the value is about 2.5e-7, so the
    # ratios must be right to far more digits than the value shows.
    import mpmath

    rng = np.random.default_rng(12)
    K = 400
    n = rng.multinomial(25, rng.dirichlet(np.ones(K)))
    m = rng.multinomial(25, rng.dirichlet(np.ones(K)))
    table = build_table(n, m, K)

    def mean_sqrt(count, total, x):
        a, b = mpmath.mpf(int(count)) + x, mpmath.mpf(int(total)) + K * x
        half = mpmath.mpf(1) / 2
        return mpmath.exp(mpmath.loggamma(a + half) - mpmath.loggamma(a)
                          - mpmath.loggamma(b + half) + mpmath.loggamma(b))

    with mpmath.workdps(50):
        for alpha, beta in ((999999.99, 999999.99), (3.0, 3.0), (1.0, 1.0)):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            want = 1 - mpmath.fsum(
                int(nu) * mean_sqrt(ni, table.N, a) * mean_sqrt(mi, table.M, b)
                for ni, mi, nu in zip(table.n, table.m, table.nu)
            )
            got = hellinger_sq_grid(table, [alpha], [beta])[0, 0]
            assert got == pytest.approx(float(want), rel=1e-8, abs=0), (alpha, beta)


def test_posterior_entropy_hand_value():
    # K=2, n=(1,0), alpha=1: (2/3) d_psi(4,3) + (1/3) d_psi(4,2) = 1/2
    table = build_table([1, 0], [0, 0], 2)
    assert entropy_grid(table, [1.0], 1)[0] == pytest.approx(0.5, abs=1e-14)


def test_posterior_entropy_empty_table_is_prior_mean():
    table = build_table([], [], 30)
    for alpha in (0.1, 1.0, 10.0):
        assert entropy_grid(table, [alpha], 1)[0] == pytest.approx(
            prior_mean_entropy(alpha, 30), rel=1e-13, abs=0
        )


def test_posterior_entropy_bounded_by_log_k():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, m, K = random_count_pair(rng, max_k=15, max_count=20)
        alpha = float(np.exp(rng.uniform(-2, 2)))
        value = entropy_grid(build_table(n, m, K), [alpha], 1)[0]
        assert 0.0 < value <= math.log(K)


def _moment_table(K, N):
    rng = np.random.default_rng(12)
    n = rng.multinomial(N, rng.dirichlet(np.ones(K)))
    m = rng.multinomial(N, rng.dirichlet(np.ones(K)))
    return build_table(n, m, K)


@pytest.mark.parametrize("K, N", [(400, 25), (13, 60)])
def test_kl_moment_grids_match_mpmath(K, N):
    # dkl_squared_pairwise shares the grids' double-precision rounding;
    # this reference sums the same terms at 60 digits.  Concentrations
    # span tiny to large, with beta unequal to alpha.
    table = _moment_table(K, N)
    alphas, betas = [1e-6, 1.0, 100.0], [2e-6, 1.3, 130.0]
    first = dkl_grid(table, alphas, betas)
    second = dkl_squared_grid(table, alphas, betas)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            want_first, want_second = kl_moments_mpmath(table, a, b)
            assert first[i, j] == pytest.approx(want_first, rel=1e-12, abs=0), (a, b)
            assert second[i, j] == pytest.approx(want_second, rel=1e-9, abs=0), (a, b)


def test_kl_second_moment_keeps_its_digits_at_large_concentrations():
    # near the uniform distribution <D^2> is a small difference of
    # (ln K)^2-sized terms, and the variance <D^2> - <D>^2 smaller still;
    # (rel tolerance of <D^2>, of the variance) at each (alpha, beta)
    table = _moment_table(400, 25)
    for (a, b), (tol_second, tol_var) in {
        (1e3, 1.3e4): (1e-10, 1e-8),
        (1e4, 1.3e4): (1e-7, 1e-6),
        (1e6, 1.3e6): (1e-7, 1e-6),
    }.items():
        want_first, want_second = kl_moments_mpmath(table, a, b)
        first = dkl_grid(table, [a], [b])[0, 0]
        second = dkl_squared_grid(table, [a], [b])[0, 0]
        assert second == pytest.approx(want_second, rel=tol_second, abs=0), (a, b)
        want_var = want_second - want_first * want_first
        assert second - first * first == pytest.approx(want_var, rel=tol_var, abs=0), (a, b)


def test_kl_mean_keeps_its_digits_at_the_box_edge():
    # at the box edge alpha = beta = 1e6, <D> is far below the ln K-sized
    # sums behind it; dp KL lands there on the K=1e4, N=25 draw
    for K, size, seed in ((10_000, 25, 5), (400, 4000, 3)):
        rng = np.random.default_rng(seed)
        q, t = sample_dirichlet(K, 1.0, rng), sample_dirichlet(K, 1.0, rng)
        table = build_table(sample_multinomial(q, size, rng),
                            sample_multinomial(t, size, rng), K)
        want, _ = kl_moments_mpmath(table, 1e6, 1e6)
        got = dkl_grid(table, [1e6], [1e6])[0, 0]
        assert got == pytest.approx(want, rel=1e-9, abs=0), (K, size)


# --- grid versions agree with scalar loops ------------------------------------------

def test_grids_match_scalar_evaluations():
    rng = np.random.default_rng(19)
    n = rng.integers(0, 15, size=10)
    m = rng.integers(0, 15, size=10)
    table = build_table(n, m, 13)
    alphas = 10.0 ** np.linspace(-3, 3, 7)
    betas = 10.0 ** np.linspace(-2.5, 2.5, 5)

    got_dkl = dkl_grid(table, alphas, betas)
    got_sq = dkl_squared_grid(table, alphas, betas)
    got_hell = hellinger_sq_grid(table, alphas, betas)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            hp = _hp(float(a), float(b), 13)
            assert got_dkl[i, j] == pytest.approx(posterior_dkl(table, hp), rel=1e-10, abs=0)
            assert got_sq[i, j] == pytest.approx(
                dkl_squared_pairwise(table, float(a), float(b)), rel=1e-9, abs=0
            )
            assert got_hell[i, j] == pytest.approx(
                posterior_hellinger_sq(table, hp), rel=1e-11, abs=0
            )

    got_ent = entropy_grid(table, alphas, 1)
    for i, a in enumerate(alphas):
        assert got_ent[i] == pytest.approx(entropy_grid(table, [a], 1)[0], rel=1e-12, abs=0)


# --- per-level evaluation against row-by-row oracles -----------------------

@st.composite
def _level_tables(draw):
    """A small table and whether to pass it through the canonical swap.

    "repeating" tables list every pair of 2-3 distinct n values and 2-3
    distinct m values, so U exceeds both Un and Um; "empty" is the
    all-(0, 0) table; "distinct" lists distinct n and distinct m values,
    so that U = Un = Um unless a padding (0, 0) row repeats a zero.
    """
    kind = draw(st.sampled_from(["repeating", "repeating", "empty", "distinct"]))
    count = st.integers(0, 5) | st.integers(0, 10_000)
    if kind == "empty":
        n = m = []
    elif kind == "distinct":
        n = draw(st.lists(count, min_size=2, max_size=8, unique=True))
        m = draw(st.lists(count, min_size=len(n), max_size=len(n), unique=True))
    else:
        n_values = draw(st.lists(count, min_size=2, max_size=3, unique=True))
        m_values = draw(st.lists(count, min_size=2, max_size=3, unique=True))
        pairs = [(a, b) for a in n_values for b in m_values]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
        n, m = [a for a, _ in pairs], [b for _, b in pairs]
    K = len(n) + draw(st.integers(0 if n else 2, 3))
    return build_table(n, m, K), draw(st.booleans())


_ALPHAS, _BETAS = [1e-3, 0.7, 40.0], [2e-3, 90.0]


def _near_difference(got, first, second):
    # the evidence derivatives and H^2 are differences of two sums, which
    # cancel where the evidence is flat (exactly, for a one-count sample)
    # or the two posteriors nearly agree; there the error is bounded by
    # the size of the sums instead
    want = first - second
    assert abs(got - want) <= max(1e-10 * abs(want), 1e-13 * (abs(first) + abs(second)))


@settings(max_examples=30, deadline=None)
@given(_level_tables())
def test_evaluators_on_levels_match_row_by_row_oracles(case):
    # every evaluator computes its special functions once per distinct
    # count and gathers or contracts them to the rows; the oracles sum
    # over the rows at 30 or 40 digits
    table, swap = case
    if swap:
        table, _ = _canonical_orientation(table)
    rel = dict(rel=1e-10, abs=0)
    for which, values in ((1, _ALPHAS), (2, _BETAS)):
        grid = log_evidence_grid(table, values, which)
        gradient = log_evidence_gradient(table, np.array(values), which)
        entropy = entropy_grid(table, values, which)
        for k, v in enumerate(values):
            value, grad, curv = evidence_mpmath(table, v, which, dps=30)
            assert grid[k] == pytest.approx(value, **rel), (which, v)
            _near_difference(gradient[k], *grad)
            _near_difference(log_evidence_curvature(table, v, which), *curv)
            assert entropy[k] == pytest.approx(entropy_mpmath(table, v, which), **rel)
    first = dkl_grid(table, _ALPHAS, _BETAS)
    second = dkl_squared_grid(table, _ALPHAS, _BETAS)
    hellinger = hellinger_sq_grid(table, _ALPHAS, _BETAS)
    for i, a in enumerate(_ALPHAS):
        for j, b in enumerate(_BETAS):
            want_first, want_second = kl_moments_mpmath(table, a, b, dps=30)
            assert first[i, j] == pytest.approx(want_first, **rel), (a, b)
            assert second[i, j] == pytest.approx(want_second, **rel), (a, b)
            _near_difference(hellinger[i, j], 1.0, 1.0 - hellinger_sq_mpmath(table, a, b))
