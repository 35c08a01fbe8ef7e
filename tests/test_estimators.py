"""Estimator front-ends: plugins, Z, DP/DPM quadrature, NSB entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesdiv import estimators
from bayesdiv.counts import build_table
from bayesdiv.estimators import (
    PLUGIN_SCHEMES,
    EstimatorError,
    _dpm_log_weight,
    _edge_mass,
    _gregory_weights,
    _mixture_average,
    _scan,
    _pseudo_counts,
    estimate,
    estimate_dkl_dp,
    estimate_dkl_dpm,
    estimate_dkl_plugin,
    estimate_dkl_zhang,
    estimate_entropy_nsb,
    estimate_hellinger_dp,
    estimate_hellinger_dpm,
    estimate_hellinger_plugin,
    maximize_log_posterior,
)
from bayesdiv.hyperprior import log_weight_kl
from bayesdiv.posterior import HyperParams, log_evidence_gradient, posterior_dkl
from bayesdiv.specfun import delta_psi
from bayesdiv.synth import (
    sample_dirichlet,
    sample_lgrams,
    sample_multinomial,
)

from _oracles import (
    expand_counts,
    random_count_pair,
    uniform_chain,
    whole_box_mixture,
    wide_tables,
    zhang_series,
)


def _dirichlet_table(K, size, seed, alpha=1.0, beta=1.0):
    rng = np.random.default_rng(seed)
    q = sample_dirichlet(K, alpha, rng)
    t = sample_dirichlet(K, beta, rng)
    n = sample_multinomial(q, size, rng)
    m = sample_multinomial(t, size, rng)
    return build_table(n, m, K), q, t


# --- plugins ----------------------------------------------------------------------

def test_plugin_identical_samples_vanish():
    table = build_table([4, 2, 1], [4, 2, 1], 3)
    for scheme in ("naive", "jeffreys", "perks"):
        assert estimate_dkl_plugin(table, scheme) == pytest.approx(0.0, abs=1e-14)
        assert estimate_hellinger_plugin(table, scheme) == pytest.approx(0.0, abs=1e-14)
    # trybula smooths with sqrt(N)/K per sample; equal sizes keep a = b
    assert estimate_dkl_plugin(table, "trybula") == pytest.approx(0.0, abs=1e-14)


def test_plugin_jeffreys_hand_value():
    table = build_table([1, 0], [0, 1], 2)
    assert estimate_dkl_plugin(table, "jeffreys") == pytest.approx(
        0.5 * math.log(3), rel=1e-13, abs=0
    )
    assert estimate_hellinger_plugin(table, "jeffreys") == pytest.approx(
        1 - math.sqrt(3) / 2, rel=1e-12, abs=0
    )


def test_plugin_naive_drops_empty_second_sample_terms():
    # q_hat = (2/3, 1/3, 0), t_hat = (0, 1/3, 2/3); the first category has
    # t_hat = 0 and is dropped, leaving (1/3) ln 1
    table = build_table([2, 1, 0], [0, 1, 2], 3)
    assert estimate_dkl_plugin(table, "naive") == pytest.approx(0.0, abs=1e-14)


def test_plugin_pseudo_count_schemes():
    table = build_table([2, 1, 0], [1, 0, 0], 3)
    assert _pseudo_counts(table, "naive") == (0.0, 0.0)
    assert _pseudo_counts(table, "jeffreys") == (0.5, 0.5)
    a, b = _pseudo_counts(table, "trybula")
    assert a == pytest.approx(math.sqrt(3) / 3) and b == pytest.approx(1 / 3)
    # perks uses each sample's own observed-category count
    assert _pseudo_counts(table, "perks") == (0.5, 1.0)


def test_plugin_rejects_empty_sample_without_smoothing():
    empty_first = build_table([0, 0], [1, 1], 2)
    with pytest.raises(ValueError):
        estimate_dkl_plugin(empty_first, "naive")
    with pytest.raises(ValueError):
        estimate_dkl_plugin(build_table([0, 0], [0, 0], 2), "perks")
    with pytest.raises(ValueError):
        estimate_dkl_plugin(empty_first, "unknown-scheme")


def test_plugin_hellinger_disjoint_naive_is_one():
    table = build_table([3, 2, 0, 0], [0, 0, 1, 4], 4)
    assert estimate_hellinger_plugin(table, "naive") == pytest.approx(1.0, abs=1e-14)


# --- Z estimator -----------------------------------------------------------------

def test_zhang_equal_samples_hand_value():
    table = build_table([2, 1, 0], [2, 1, 0], 3)
    assert estimate_dkl_zhang(table) == pytest.approx(-1 / 3, rel=1e-13, abs=0)


def test_zhang_equal_samples_closed_form():
    # with n = m the value telescopes to (1 - K_obs)/N
    rng = np.random.default_rng(7)
    for _ in range(10):
        K = int(rng.integers(2, 9))
        n = rng.integers(0, 9, size=K)
        if n.sum() == 0:
            n[0] = 1
        table = build_table(n, n, K)
        want = (1 - table.observed_categories(1)) / table.N
        assert estimate_dkl_zhang(table) == pytest.approx(want, rel=1e-12, abs=0)


def test_zhang_matches_original_series():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n, m, K = random_count_pair(rng)
        table = build_table(n, m, K)
        assert estimate_dkl_zhang(table) == pytest.approx(
            zhang_series(n, m), abs=1e-10
        )


def test_zhang_rejects_empty_first_sample():
    with pytest.raises(ValueError):
        estimate_dkl_zhang(build_table([0, 0], [1, 2], 2))


def test_dp_limit_reaches_zhang():
    # posterior DKL at alpha -> 0, beta = 1 equals Z plus a known constant
    rng = np.random.default_rng(41)
    for _ in range(5):
        n, m, K = random_count_pair(rng, min_n=1)
        table = build_table(n, m, K)
        lhs = posterior_dkl(table, HyperParams(1e-8, 1.0, K))
        shift = float(delta_psi(table.M + K, table.M + 1)) + (K - 1) / table.N
        assert lhs - shift == pytest.approx(estimate_dkl_zhang(table), abs=1e-6)


# --- maximization -----------------------------------------------------------------

def test_dp_maximizer_recovers_truth_concentration():
    # alpha_true = beta_true = 1 at K=400, N=10^4: the evidence peak sits
    # near 1 in every seed
    hits = []
    for seed in range(30):
        table, _, _ = _dirichlet_table(400, 10_000, seed)
        mx = maximize_log_posterior(table)
        hits.append((mx.alpha_star, mx.beta_star))
    stars = np.array(hits)
    assert np.all((stars > 0.7) & (stars < 1.4))


def test_dp_empty_table_flags_boundaries():
    table = build_table([], [], 50)
    mx = maximize_log_posterior(table)
    assert mx.boundary_alpha and mx.boundary_beta
    assert mx.alpha_star == 1.0 and mx.beta_star == 1.0


def test_dp_maximizer_resolves_a_flat_evidence():
    # The evidence of n is nearly flat in alpha: neighbouring alphas differ
    # by less than the rounding of a direct ln Gamma sum.  Its maximum,
    # found with mpmath and by bisection on the analytic gradient, is at
    # alpha* = 196.340.
    n = np.array([2, 2] + [1] * 196 + [0] * 2)
    m = np.array([1] * 198 + [0] * 2)
    table = build_table(n, m, 10_000)
    mx = maximize_log_posterior(table)
    assert mx.alpha_star == pytest.approx(196.340, rel=1e-3, abs=0)
    assert not mx.boundary_alpha


def test_dp_maximum_sits_on_a_gradient_sign_change():
    # each coordinate lies within 1e-12 in ln alpha of where the evidence
    # gradient stops rising, or at the box edge the gradient points past
    for N in (25, 100, 1000, 10_000, 40_000):
        table, _, _ = _dirichlet_table(400, N, 3)
        mx = maximize_log_posterior(table)
        for which, star, edge in ((1, mx.alpha_star, mx.boundary_alpha),
                                  (2, mx.beta_star, mx.boundary_beta)):
            u = math.log(star) + np.array([-1e-12, 1e-12])
            left, right = log_evidence_gradient(table, np.exp(u), which)
            if not edge:
                assert left > 0.0 >= right, (N, which)
            elif star > 1.0:
                assert left > 0.0, (N, which)
            else:
                assert right <= 0.0, (N, which)


def test_dpm_and_dp_maximizers_differ_at_small_samples():
    table, _, _ = _dirichlet_table(400, 100, 0)
    dp = maximize_log_posterior(table)
    dpm = estimate_dkl_dpm(table).diagnostics
    shift = abs(math.log(dp.alpha_star / dpm["alpha_star"])) + abs(
        math.log(dp.beta_star / dpm["beta_star"])
    )
    assert shift > 0.05


def test_maximize_rejects_unknown_weight():
    # the search is dp-only: no weight or divergence option is accepted
    table = build_table([1, 0], [0, 1], 2)
    with pytest.raises(TypeError):
        maximize_log_posterior(table, "map")
    with pytest.raises(TypeError):
        maximize_log_posterior(table, weight="dpm")


# --- DPM quadrature ------------------------------------------------------------------

def test_mixture_average_invariant_under_log_weight_shift():
    rng = np.random.default_rng(9)
    log_w = rng.normal(size=(40, 30))
    grids = [rng.uniform(1, 2, size=(40, 30))]
    base = _mixture_average(_gregory_weights(log_w), grids)[0]
    for shift in (-700.0, -3.2, 250.0):
        shifted = _mixture_average(_gregory_weights(log_w + shift), grids)[0]
        assert shifted == pytest.approx(base, rel=1e-12, abs=0)


def test_gregory_weights_are_fourth_order_at_the_window_ends():
    # weights that do not vanish at the ends of [0, 4]: the trapezoid errs
    # by 1.8e-3 and 4.6e-4 relative at 33 and 65 nodes on the 1-D case
    e4 = math.exp(4.0)
    mean_u = (3.0 * e4 + 1.0) / (e4 - 1.0)
    for nodes, tol in ((33, 2.5e-5), (65, 2e-6)):
        u = np.linspace(0.0, 4.0, nodes)
        got = _mixture_average(_gregory_weights(u), [u * u])[0]
        assert got == pytest.approx((10.0 * e4 - 2.0) / (e4 - 1.0), rel=tol, abs=0)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        got = _mixture_average(_gregory_weights(uu + vv), [uu * vv])[0]
        assert got == pytest.approx(mean_u * mean_u, rel=tol, abs=0)


def test_mixture_average_stays_within_its_grid():
    rng = np.random.default_rng(21)
    for shape in ((7,), (33,), (6, 9), (65, 33)):
        log_w = rng.normal(scale=20.0, size=shape)
        grid = rng.uniform(-1.0, 1.0, size=shape)
        avg = _mixture_average(_gregory_weights(log_w), [grid])[0]
        assert grid.min() <= avg <= grid.max()


def test_dpm_and_nsb_match_whole_box_oracle():
    tables = {
        "K=400 N=25": _dirichlet_table(400, 25, 31)[0],
        "K=400 N=100": _dirichlet_table(400, 100, 32)[0],
        "K=400 empty": build_table([], [], 400),
        "K=2 disjoint": build_table([3, 0], [0, 3], 2),
    }
    for label, table in tables.items():
        runs = (
            ("kl", estimate_dkl_dpm(table)),
            ("hellinger2", estimate_hellinger_dpm(table)),
            ("entropy", estimate_entropy_nsb(expand_counts(table)[0], table.K)),
        )
        for kind, report in runs:
            want, want_std = whole_box_mixture(table, kind)
            err = report.diagnostics["quad_error"]
            assert abs(report.value - want) <= max(2 * err, 1e-5 * abs(want)), (
                label, kind, report.value, want, err)
            if want_std is not None:
                assert abs(report.posterior_std - want_std) <= max(
                    2 * err, 1e-5 * want_std), (label, report.posterior_std, want_std)


def test_dpm_matches_dp_at_large_samples():
    table, _, _ = _dirichlet_table(400, 40_000, 77)
    dpm = estimate_dkl_dpm(table)
    dp = estimate_dkl_dp(table)
    assert dp.value == pytest.approx(dpm.value, rel=0.02, abs=0)


def test_dpm_report_contract():
    table, _, _ = _dirichlet_table(50, 200, 5)
    report = estimate_dkl_dpm(table)
    assert np.isfinite(report.value)
    assert report.posterior_std is not None and report.posterior_std >= 0.0
    for key in (
        "alpha_star",
        "beta_star",
        "grid_bins_alpha",
        "grid_bins_beta",
        "log_evidence_at_max",
        "boundary_alpha",
        "boundary_beta",
        "quad_error",
        "edge_mass",
        "converged",
    ):
        assert key in report.diagnostics
    assert 0.0 <= report.diagnostics["quad_error"] <= 1e-6 * report.value
    assert 0.0 <= report.diagnostics["edge_mass"] <= 1.0
    assert estimate_dkl_dp(table).posterior_std is None
    assert estimate_hellinger_dpm(table).posterior_std is None
    assert estimate_hellinger_dp(table).posterior_std is None


def test_converged_flags_the_tables_that_stop_at_the_node_cap():
    # the KL prior's kink at z = ln K keeps these two KL estimates short of
    # the tolerance at the last level allowed
    for table in (build_table([], [], 400), build_table([3, 0], [0, 3], 2)):
        kl = estimate_dkl_dpm(table).diagnostics
        assert kl["converged"] is False and kl["grid_bins_alpha"] == 1025
        assert estimate_hellinger_dpm(table).diagnostics["converged"] is True
    table = _dirichlet_table(400, 100, 32)[0]
    assert estimate_dkl_dpm(table).diagnostics["converged"] is True
    assert estimate_hellinger_dpm(table).diagnostics["converged"] is True


def test_edge_reaching_posteriors_converge_within_257_nodes():
    # weights that reach the box edge: with a plain trapezoid each of
    # these runs to the 1025-node cap
    for table in (_dirichlet_table(400, 50, 31)[0], _dirichlet_table(10000, 200, 33)[0]):
        for report in (estimate_dkl_dpm(table), estimate_hellinger_dpm(table)):
            diag = report.diagnostics
            assert diag["boundary_alpha"] or diag["boundary_beta"]
            assert diag["grid_bins_alpha"] <= 257 and diag["grid_bins_beta"] <= 257
            assert diag["quad_error"] <= 1e-6 * report.value
    for table in (build_table([], [], 400), build_table([3, 0], [0, 3], 2)):
        assert estimate_hellinger_dpm(table).diagnostics["grid_bins_alpha"] <= 257


def test_edge_mass_does_not_shrink_with_the_node_spacing():
    # posteriors flat up to the box edge keep the same share near it when
    # the nodes of one window double
    for table in (build_table([], [], 400), build_table([3, 0], [0, 3], 2)):
        log_weight = _dpm_log_weight(table, log_weight_kl)
        window = _scan(log_weight, 2)[0]
        shares = []
        for nodes in (513, 1025):
            axes = [np.linspace(lo, hi, nodes) for lo, hi in window]
            shares.append(_edge_mass(_gregory_weights(log_weight(*axes)), axes))
        assert shares[1] == pytest.approx(shares[0], rel=0.05, abs=0), shares
        assert shares[1] > 0.01


def test_dpm_empty_table_is_finite_positive():
    table = build_table([], [], 400)
    report = estimate_dkl_dpm(table)
    assert np.isfinite(report.value) and report.value > 0.0
    hell = estimate_hellinger_dpm(table)
    assert 0.0 < hell.value < 1.0


def test_estimators_invariant_under_category_permutation():
    rng = np.random.default_rng(88)
    n = rng.integers(0, 20, size=30)
    m = rng.integers(0, 20, size=30)
    perm = rng.permutation(30)
    a = build_table(n, m, 30)
    b = build_table(n[perm], m[perm], 30)
    assert estimate_dkl_dpm(a).value == estimate_dkl_dpm(b).value
    assert estimate_dkl_zhang(a) == estimate_dkl_zhang(b)
    for scheme in PLUGIN_SCHEMES:
        assert estimate_dkl_plugin(a, scheme) == estimate_dkl_plugin(b, scheme)


def _exchange_alpha_beta(diag):
    return {k.replace("alpha", "@").replace("beta", "alpha").replace("@", "beta"): v
            for k, v in diag.items()}


@st.composite
def _count_pairs(draw):
    """K from 2 to 60, counts up to 1e4 on the listed categories; either
    sample may be empty."""
    K = draw(st.integers(2, 60))
    listed = draw(st.integers(0, K))
    sample = st.lists(st.integers(0, 10_000), min_size=listed, max_size=listed)
    sample |= st.just([0] * listed)
    return draw(sample), draw(sample), K


def _hellinger_outcome(table, name):
    """(value, diagnostics) of one H^2 estimate, or its ValueError's message."""
    try:
        report = estimate(table, name, "hellinger2")
    except ValueError as exc:
        return str(exc)
    return report.value, report.diagnostics


@settings(max_examples=50, deadline=None)
@given(_count_pairs())
def test_hellinger_dpm_symmetric_under_sample_swap(pair):
    # dpm, dp and every plugin scheme: the same value, or the same error
    # (a plugin may reject an empty sample), in either sample order
    n, m, K = pair
    for name in ("dpm", "dp", *PLUGIN_SCHEMES):
        forward = _hellinger_outcome(build_table(n, m, K), name)
        backward = _hellinger_outcome(build_table(m, n, K), name)
        if isinstance(backward, tuple):
            backward = (backward[0], _exchange_alpha_beta(backward[1]))
        assert forward == backward, name


@settings(max_examples=25, deadline=None)
@given(wide_tables())
def test_bayesian_estimates_lie_in_their_range(table):
    for name in ("dp", "dpm"):
        for divergence in ("kl", "hellinger2"):
            report = estimate(table, name, divergence)
            assert math.isfinite(report.value), (name, divergence)
            if divergence == "kl":
                assert report.value >= 0.0, (name, divergence)
            else:
                assert 0.0 <= report.value <= 1.0, (name, divergence)
            std = report.posterior_std
            assert std is None or (math.isfinite(std) and std >= 0.0), (name, divergence)


def test_hellinger_dpm_diagnostics_name_the_callers_samples():
    # a sparse and a dense sample: their concentrations lie two decades
    # apart, so a swapped label shows
    rng = np.random.default_rng(1)
    n = sample_multinomial(sample_dirichlet(200, 0.05, rng), 2000, rng)
    m = sample_multinomial(sample_dirichlet(200, 5.0, rng), 2000, rng)
    diag = estimate_hellinger_dpm(build_table(n, m, 200)).diagnostics
    assert diag["alpha_star"] < 1.0 < diag["beta_star"]
    swapped = estimate_hellinger_dpm(build_table(m, n, 200)).diagnostics
    assert swapped == _exchange_alpha_beta(diag)


def test_front_ends_call_their_own_hyper_prior_and_grids(monkeypatch):
    # the benchmark's tracer rebinds these module names; each front-end
    # must look its own up when called
    names = ("log_weight_kl", "log_weight_hellinger", "dkl_grid",
             "dkl_squared_grid", "kl_moment_grids", "hellinger_sq_grid")
    called = set()
    for name in names:
        def counted(*args, _fn=getattr(estimators, name), _name=name):
            called.add(_name)
            return _fn(*args)
        monkeypatch.setattr(estimators, name, counted)
    table = build_table([3, 1, 0, 2], [1, 1, 2, 0], 4)
    for front_end, own in (
        (estimate_dkl_dpm, {"log_weight_kl", "kl_moment_grids"}),
        (estimate_hellinger_dpm, {"log_weight_hellinger", "hellinger_sq_grid"}),
        (estimate_dkl_dp, {"dkl_grid"}),
        (estimate_hellinger_dp, {"hellinger_sq_grid"}),
    ):
        called.clear()
        front_end(table)
        assert called == own, front_end.__name__


def test_dpm_converges_on_dirichlet_truth():
    from bayesdiv.synth import exact_dkl

    table, q, t = _dirichlet_table(400, 10_000, 123)
    report = estimate_dkl_dpm(table)
    assert report.value == pytest.approx(exact_dkl(q, t), rel=0.05, abs=0)


# --- dispatch -------------------------------------------------------------------------

def test_estimate_dispatches_on_name_and_divergence():
    table = build_table([3, 1, 0, 2], [1, 1, 2, 0], 4)
    zhang = estimate(table, "zhang")
    assert zhang.value == estimate_dkl_zhang(table) and zhang.diagnostics == {}
    for scheme in PLUGIN_SCHEMES:
        report = estimate(table, scheme, "hellinger2")
        assert report.value == estimate_hellinger_plugin(table, scheme)
        assert report.posterior_std is None and report.diagnostics == {}
    assert estimate(table, "dpm").value == estimate_dkl_dpm(table).value
    dp = estimate(table, "dp", "hellinger2")
    assert dp.value == estimate_hellinger_dp(table).value
    for name, divergence in (("zhang", "hellinger2"), ("mle", "kl"), ("dpm", "tv")):
        with pytest.raises(ValueError):
            estimate(table, name, divergence)


def test_estimate_marks_a_rejected_table_but_not_a_bad_name():
    empty_first = build_table([0, 0], [1, 2], 2)
    with pytest.raises(ValueError) as direct:
        estimate_dkl_zhang(empty_first)
    with pytest.raises(EstimatorError) as marked:
        estimate(empty_first, "zhang")
    assert str(marked.value) == str(direct.value)
    assert isinstance(marked.value, ValueError)
    with pytest.raises(ValueError) as bad_name:
        estimate(empty_first, "mle")
    assert type(bad_name.value) is ValueError


# --- NSB entropy -----------------------------------------------------------------------

def test_nsb_uniform_chain_recovers_log_k():
    spec = uniform_chain(20, 2)
    counts = sample_lgrams(spec, 4000, 2)
    report = estimate_entropy_nsb(counts, 400)
    assert report.value == pytest.approx(math.log(400), rel=0.05, abs=0)
    assert report.posterior_std is None


def test_nsb_matches_plugin_entropy_at_large_samples():
    rng = np.random.default_rng(3)
    q = sample_dirichlet(40, 1.0, rng)
    counts = sample_multinomial(q, 4000, rng)
    freq = counts[counts > 0] / counts.sum()
    plugin = -float(np.sum(freq * np.log(freq)))
    report = estimate_entropy_nsb(counts, 40)
    assert report.value == pytest.approx(plugin, rel=0.01, abs=0)


def test_nsb_empty_sample_prior_mean_is_finite():
    report = estimate_entropy_nsb(np.zeros(20, dtype=int), 20)
    assert np.isfinite(report.value)
    assert 0.0 < report.value <= math.log(20)


def test_nsb_bounded_by_log_k():
    rng = np.random.default_rng(21)
    for _ in range(5):
        counts = rng.integers(0, 30, size=12)
        report = estimate_entropy_nsb(counts, 12)
        assert 0.0 < report.value <= math.log(12)
