"""Estimator front-ends: plugins, Z, DP/DPM quadrature, NSB entropy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesdiv import estimators
from bayesdiv.counts import build_table
from bayesdiv.estimators import (
    PLUGIN_SCHEMES,
    EstimatorError,
    _dpm_log_weight,
    _level_averages,
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
from bayesdiv.hyperprior import _prior_means, kl_hinge, log_weight_kl
from bayesdiv.posterior import (
    HyperParams,
    entropy_grid,
    kl_moment_grids,
    log_evidence,
    log_evidence_grid,
    log_evidence_gradient,
    posterior_dkl,
)
from bayesdiv.specfun import delta_psi
from bayesdiv.synth import (
    sample_dirichlet,
    sample_lgrams,
    sample_multinomial,
)

from _oracles import (
    evidence_mpmath,
    expand_counts,
    random_count_pair,
    row_split_kl,
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
    # here the root sum rounds an ulp above 1, and H^2 stays at 0
    counts = [0] * 391 + [1, 55, 90, 135, 138, 518, 1800, 5687, 827893]
    assert estimate_hellinger_plugin(build_table(counts, counts, 400), "trybula") == 0.0


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


def test_dp_pins_a_one_count_sample_without_a_search(monkeypatch):
    # one observation makes the evidence 1/K at every alpha: that sample is
    # pinned at 1.0 and flagged, as an empty one is, and adds its evidence
    # there, -ln K to an ulp or two
    calls = []
    monkeypatch.setattr(estimators, "log_evidence_gradient", lambda *args: calls.append(args))
    for K in (2, 3, 10, 400, 10_000):
        one = [1] + [0] * (K - 1)
        for second, second_term in ((one[::-1], -math.log(K)), ([0] * K, 0.0)):
            table = build_table(one, second, K)
            mx = maximize_log_posterior(table)
            assert (mx.alpha_star, mx.beta_star) == (1.0, 1.0)
            assert mx.boundary_alpha and mx.boundary_beta
            terms = log_evidence(table, 1.0, 1), log_evidence(table, 1.0, 2)
            assert mx.log_evidence_at_max == terms[0] + terms[1]
            assert terms == pytest.approx((-math.log(K), second_term), rel=1e-12, abs=0)
            assert abs(terms[0] + math.log(K)) <= 2e-15, (K, terms[0])
    assert calls == []


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


def test_dp_search_takes_few_gradient_calls(monkeypatch):
    # one gradient call per iterate, the two-point probe counting once,
    # over the K=400 ladder; no sample there has one count, whose flat
    # evidence the search can only bisect
    calls = []

    def counted(*args):
        calls[-1] += 1
        return log_evidence_gradient(*args)

    monkeypatch.setattr(estimators, "log_evidence_gradient", counted)
    for seed in range(3):
        for N in (25, 50, 100, 200, 400, 1000, 4000, 10_000, 40_000):
            table = _dirichlet_table(400, N, seed)[0]
            for which in (1, 2):
                calls.append(0)
                estimators._evidence_argmax(table, [which])   # one search alone
    assert 0 < max(calls) <= 12, calls


@pytest.mark.parametrize("K, N, seed", [(400, 25, 0), (50, 200, 3), (3, 10**6, 2)])
def test_dp_maximum_sits_on_a_sign_change_of_the_exact_gradient(K, N, seed):
    # the gradient summed at 40 digits changes sign within 1e-10 in ln alpha
    # of each coordinate, or at the box edge points past it
    table, _, _ = _dirichlet_table(K, N, seed)
    mx = maximize_log_posterior(table)
    for which, star, edge in ((1, mx.alpha_star, mx.boundary_alpha),
                              (2, mx.beta_star, mx.boundary_beta)):
        left, right = (
            math.fsum((rows, -total)) for rows, total in (
                evidence_mpmath(table, math.exp(math.log(star) + d), which)[1]
                for d in (-1e-10, 1e-10)))
        if not edge:
            assert left > 0.0 > right, (which, left, right)
        elif star > 1.0:
            assert left > 0.0, (which, left)
        else:
            assert right < 0.0, (which, right)


def test_dp_search_ends_on_a_one_count_sample(monkeypatch):
    # one count makes the evidence exactly flat, so the gradient's sign is
    # rounding; the search still ends inside the box, mostly by halving its
    # bracket (41 halvings take the scan's two steps below 1e-12)
    calls = []

    def counted(*args):
        calls[-1] += 1
        return log_evidence_gradient(*args)

    monkeypatch.setattr(estimators, "log_evidence_gradient", counted)
    for K in (2, 3, 10, 400, 10_000):
        table = build_table([1] + [0] * (K - 1), [0] * (K - 1) + [3], K)
        calls.append(0)
        u, = estimators._evidence_argmax(table, [1])
        assert math.log(1e-6) <= u <= math.log(1e6), K
    assert max(calls) <= 64, calls


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

def _gregory_average(log_w, grid):
    """Average of ``grid`` under Gregory weights on all nodes of ``log_w``."""
    def pick(array):
        return lambda *idx: array[np.ix_(*idx)]   # a copy, as the evaluators return
    axes = [np.arange(n) for n in log_w.shape]
    return _level_averages(pick(log_w), lambda *idx: [pick(grid)(*idx)], axes)[0][0]


def test_mixture_average_invariant_under_log_weight_shift():
    rng = np.random.default_rng(9)
    for shape in ((40, 30), (300, 270)):   # one tile, and several
        log_w = rng.normal(size=shape)
        grid = rng.uniform(1, 2, size=shape)
        base = _gregory_average(log_w, grid)
        for shift in (-700.0, -3.2, 250.0):
            shifted = _gregory_average(log_w + shift, grid)
            assert shifted == pytest.approx(base, rel=1e-12, abs=0)


def test_gregory_weights_are_fourth_order_at_the_window_ends():
    # weights that do not vanish at the ends of [0, 4]: the trapezoid errs
    # by 1.8e-3 and 4.6e-4 relative at 33 and 65 nodes on the 1-D case
    e4 = math.exp(4.0)
    mean_u = (3.0 * e4 + 1.0) / (e4 - 1.0)
    for nodes, tol in ((33, 2.5e-5), (65, 2e-6)):
        u = np.linspace(0.0, 4.0, nodes)
        got = _gregory_average(u, u * u)
        assert got == pytest.approx((10.0 * e4 - 2.0) / (e4 - 1.0), rel=tol, abs=0)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        got = _gregory_average(uu + vv, uu * vv)
        assert got == pytest.approx(mean_u * mean_u, rel=tol, abs=0)


def test_mixture_average_stays_within_its_grid():
    rng = np.random.default_rng(21)
    for shape in ((7,), (33,), (6, 9), (65, 33), (300, 7)):
        log_w = rng.normal(scale=20.0, size=shape)
        grid = rng.uniform(-1.0, 1.0, size=shape)
        avg = _gregory_average(log_w, grid)
        assert grid.min() <= avg <= grid.max()


@pytest.mark.parametrize("tile, tiles", [(16, 4), (15, 5)])   # 15 cuts at odd nodes
@pytest.mark.parametrize("dims, hinged", [pytest.param(1, False, id="1"),
                                          pytest.param(2, False, id="2"),
                                          pytest.param(2, True, id="2-hinge")])
def test_a_tiled_level_matches_one_evaluation_of_the_whole(monkeypatch, dims, hinged, tile, tiles):
    table = _dirichlet_table(40, 30, seed=4)[0]
    hinges = None
    if dims == 2:
        log_weight = _dpm_log_weight(table, log_weight_kl)
        grids = lambda ua, ub: kl_moment_grids(table, np.exp(ua), np.exp(ub))  # noqa: E731
    else:
        log_weight = lambda ua: log_evidence_grid(table, np.exp(ua), 1) + ua  # noqa: E731
        grids = lambda ua: [entropy_grid(table, np.exp(ua), 1)]  # noqa: E731
    seen = []

    def moments(*axes):
        seen.append([len(u) for u in axes])
        return grids(*axes)

    axes = [np.linspace(lo, hi, 65) for lo, hi in _scan(log_weight, dims)[0]]
    if hinged:
        hinges = estimators._level_hinges(table.K, axes)
    whole = _level_averages(log_weight, moments, axes, hinges)
    assert seen == [[65] * dims]
    monkeypatch.setattr(estimators, "_TILE_NODES", tile)
    if hinged:   # some crossing cell of each rule has its two nodes in two tiles
        cuts = np.array([s.start for s in estimators._tiles(65)])
        for stride in (1, 2):
            means = _prior_means(*(np.exp(u[::stride]) for u in axes), table.K)
            j = stride * kl_hinge(*means, table.K)[1][:, None]
            assert ((j < cuts) & (cuts <= j + stride)).any(), stride
    seen.clear()
    tiled = _level_averages(log_weight, moments, axes, hinges)
    assert len(seen) == tiles ** dims and max(map(max, seen)) <= tile + 1
    for got, want in zip([*tiled[0], *tiled[1], tiled[2]], [*whole[0], *whole[1], whole[2]]):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_quadrature_memory_stays_below_one_grid_of_its_last_level():
    # the empty table's flat posterior runs the KL quadrature to 1025^2
    # nodes; its levels are evaluated tile by tile, so the most memory
    # held at once stays below one 1025^2 grid of float64
    table = build_table([], [], 400)
    tracemalloc.start()
    try:
        report = estimate_dkl_dpm(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diagnostics["grid_bins_alpha"] == 1025
    assert peak < 1025 * 1025 * 8, peak


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


@pytest.mark.parametrize("N", [25, 50])
def test_dpm_kl_matches_a_row_split_oracle(N):
    # the oracle splits each alpha row's beta integral at the KL prior's
    # bend; the hinge terms hold the library's rule to it without a split,
    # and at N=25 without the 1025-node levels that the bend once needed
    for seed in range(31, 36):
        table = _dirichlet_table(400, N, seed)[0]
        report = estimate_dkl_dpm(table)
        mean, std = row_split_kl(table)
        diag = report.diagnostics
        assert report.value == pytest.approx(mean, rel=1e-6, abs=0), seed
        assert report.posterior_std == pytest.approx(std, rel=1e-6, abs=0), seed
        assert diag["converged"] is True, seed
        if N == 25:
            assert max(diag["grid_bins_alpha"], diag["grid_bins_beta"]) <= 257, seed


@pytest.mark.parametrize("K", [2, 3, 400, 10**4, 10**7])
def test_hinge_terms_keep_every_node_weight_positive(K):
    # positive weights keep every average within its grid's range, so that
    # KL >= 0 holds by construction; the coarsest whole-box levels have the
    # widest cells, so the largest hinge terms
    box = (math.log(1e-6), math.log(1e6))
    for nodes in (9, 17, 33, 65):
        axes = [np.linspace(*box, nodes)] * 2
        rules = [estimators._axis_rules(u) for u in axes]
        for k, (at, add) in enumerate(estimators._level_hinges(K, axes)):
            plain = np.outer(rules[0][k], rules[1][k])   # all nodes, then the subgrid
            corrected = plain.copy()
            np.add.at(corrected, at, add)
            assert len(add) > 0 and (plain[at] > 0).all(), (nodes, k)
            assert (corrected[plain > 0] > 0).all(), (nodes, k)


def test_a_dpm_kl_estimate_makes_one_prior_mean_pass_per_level(monkeypatch):
    # a level's bend, and the first level's subgrid's, come from one pass
    # of the prior means on the level's axes
    passes = []
    means = estimators._prior_means
    monkeypatch.setattr(estimators, "_prior_means",
                        lambda *args: passes.append(args) or means(*args))
    seen = set()
    for table in [_dirichlet_table(400, N, 31)[0] for N in (25, 100, 4000)] + [
            build_table([], [], 400), build_table([3, 0], [0, 3], 2)]:
        passes.clear()
        nodes = estimate_dkl_dpm(table).diagnostics["grid_bins_alpha"]
        levels = int(math.log2((nodes - 1) // 32)) + 1   # 33, 65, 129, .. nodes
        assert len(passes) == levels, (table.K, table.N, nodes)
        seen.add(levels)
    assert min(seen) < max(seen)


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
    # <D^2> grows like 1/beta^2 toward the box edge beta = 1e-6, where these
    # two flat posteriors keep their weight; its fine-to-subgrid gap falls
    # about 15-fold per doubling, yet is still 3e-6 at the last level allowed
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
            shares.append(_level_averages(log_weight, lambda *axes: [], axes)[2])
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


@settings(max_examples=100, deadline=None)
@given(wide_tables())
def test_plugins_and_zhang_are_finite_or_reject_an_empty_sample(table):
    # naive, trybula and perks have no frequencies for an empty sample,
    # and zhang none for an empty first sample; jeffreys always has
    empty = table.N == 0 or table.M == 0
    for scheme in PLUGIN_SCHEMES:
        if empty and scheme != "jeffreys":
            for plugin in (estimate_dkl_plugin, estimate_hellinger_plugin):
                with pytest.raises(ValueError, match="empty sample"):
                    plugin(table, scheme)
            continue
        assert math.isfinite(estimate_dkl_plugin(table, scheme)), scheme
        assert 0.0 <= estimate_hellinger_plugin(table, scheme) <= 1.0, scheme
    if table.N == 0:
        with pytest.raises(ValueError, match="non-empty first sample"):
            estimate_dkl_zhang(table)
    else:
        assert math.isfinite(estimate_dkl_zhang(table))


@pytest.mark.parametrize("seed", [0, 1])
def test_bayesian_estimates_approach_the_naive_plugin_as_samples_grow(seed):
    # the prior's pull on each frequency falls like K/N; at K=50 the
    # estimates sit 1-3 K/N from the naive plugin
    K = 50
    for size in (10**4, 10**6, 10**8):
        table, _, _ = _dirichlet_table(K, size, seed)
        for divergence in ("kl", "hellinger2"):
            naive = estimate(table, "naive", divergence).value
            for name in ("dp", "dpm"):
                value = estimate(table, name, divergence).value
                assert abs(value / naive - 1.0) <= 10 * K / size, (name, divergence, size)


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
