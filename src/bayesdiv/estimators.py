"""Divergence and entropy estimators over count-pair tables.

Bayesian routes:

* DP: empirical Bayes.  Each sample's concentration is set by maximizing
  its own Dirichlet-multinomial evidence; the posterior mean at that
  single (alpha*, beta*) is the estimate.
* DPM: full mixture.  The posterior mean is averaged over (alpha, beta)
  against evidence times a flattening hyper-prior, over the whole box
  [1e-6, 1e6]^2 in (ln alpha, ln beta).  A coarse scan finds where the
  weight lies; end-corrected trapezoid (Gregory) grids over that window
  are doubled until they agree with their every-other-node subgrid.
  The KL hyper-prior bends along the curve z = ln K; each level's node
  weights carry the Euler-Maclaurin terms of that bend, so that it costs
  the rule no accuracy.  Each level is evaluated tile by tile, so its
  memory stays bounded.

Baselines: pseudo-count plugins (naive / jeffreys / trybula / perks), the
bias-corrected Z estimator for KL, and the evidence-mixture entropy
estimator (NSB) used for single samples, which runs the same quadrature
in one dimension.  ``estimate`` dispatches on estimator and divergence
names.
"""

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .counts import MultiplicityTable, build_table
from .hyperprior import (
    kl_hinge,
    log_weight_hellinger,
    log_weight_kl,
    prior_entropy_slope,
)
from .posterior import (
    check_K,
    check_table,
    dkl_grid,
    dkl_squared_grid,   # no front-end calls it; the benchmark's tracer patches it here
    entropy_grid,
    hellinger_sq_grid,
    kl_moment_grids,
    log_evidence,       # likewise: dp takes both samples' evidence in one grid call
    log_evidence_grid,
    log_evidence_gradient,
)

__all__ = [
    "EstimateReport",
    "EstimatorError",
    "PosteriorMax",
    "estimate",
    "check_estimator",
    "maximize_log_posterior",
    "estimate_dkl_dpm",
    "estimate_dkl_dp",
    "estimate_hellinger_dpm",
    "estimate_hellinger_dp",
    "estimate_dkl_plugin",
    "estimate_hellinger_plugin",
    "estimate_dkl_zhang",
    "estimate_entropy_nsb",
    "PLUGIN_SCHEMES",
    "ESTIMATOR_NAMES",
    "DIVERGENCES",
]

_LOG_LO = math.log(1e-6)
_LOG_HI = math.log(1e6)
_EDGE_TOL = 1e-6
_SCAN_NODES = 33      # per axis, on every scan of the weight
_SCAN_DEPTH = 30.0    # a scan keeps the nodes within e^-30 of its maximum
_MAX_SCANS = 40       # an unfilled window shrinks to at most 17/32 per rescan
_FIRST_NODES = 33     # per axis, on the first quadrature level
_MAX_NODES = 1025     # per axis, on the last level allowed
_TILE_NODES = 256     # per axis, a tile of a level spans at most this + 1 nodes
_QUAD_TOL = 1e-6      # relative agreement of a level with its subgrid
_DP_TOL = 1e-12       # bracket width in ln alpha of a dp evidence maximum
_GREGORY_ENDS = np.array([3 / 8, 7 / 6, 23 / 24])   # end-node weights, in steps
_LAGRANGE_DENOMINATORS = np.array([-6.0, 2.0, -2.0, 6.0])   # prod (m - k), k != m, of 4 nodes

PLUGIN_SCHEMES = ("naive", "jeffreys", "trybula", "perks")
ESTIMATOR_NAMES = ("dpm", "dp") + PLUGIN_SCHEMES + ("zhang",)
DIVERGENCES = ("kl", "hellinger2")


@dataclass
class EstimateReport:
    """Estimate plus run metadata.

    ``posterior_std`` is only filled by the KL mixture estimator, the
    only one that reports a spread today; everything else reports None.
    ``diagnostics`` is empty for the plugins and the Z estimator.
    """

    value: float
    posterior_std: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PosteriorMax:
    """Per-sample evidence maximizers and the summed log evidence there."""

    alpha_star: float
    beta_star: float
    log_evidence_at_max: float
    boundary_alpha: bool = False
    boundary_beta: bool = False


def _at_edge(u):
    return u <= _LOG_LO + _EDGE_TOL or u >= _LOG_HI - _EDGE_TOL


def _dpm_log_weight(table, log_prior):
    """ln(evidence x hyper-prior x alpha beta) on (ln alpha, ln beta) axes."""

    def log_weight(ua, ub):
        a, b = np.exp(ua), np.exp(ub)
        out = log_prior(a[:, None], b[None, :], table.K)
        # both samples' evidence from one call
        evidence = log_evidence_grid(table, np.concatenate([a, b]),
                                     np.repeat([1, 2], [len(a), len(b)]))
        out += (evidence[:len(a)] + ua)[:, None]
        out += evidence[len(a):] + ub
        return out

    return log_weight


# --- whole-box quadrature ---------------------------------------------------

def _scan(log_weight, dims):
    """Coarse log grids that close in on the bulk of the weight.

    The first scan covers the whole box.  On each axis it keeps the node
    span where the log weight lies within _SCAN_DEPTH of its maximum,
    widened by one node on each side; that span is scanned again until
    it fills at least half the nodes of every axis.  Returns the window
    to integrate over, the per-axis concentrations at the last scan's
    best node, the log weight there, and whether each axis of the window
    reaches the box edge.
    """
    window = [(_LOG_LO, _LOG_HI)] * dims
    for _ in range(_MAX_SCANS):
        axes = [np.linspace(lo, hi, _SCAN_NODES) for lo, hi in window]
        log_w = log_weight(*axes)
        keep = log_w >= log_w.max() - _SCAN_DEPTH
        window, filled = [], True
        for k, u in enumerate(axes):
            other = tuple(j for j in range(dims) if j != k)
            hit = np.flatnonzero(keep.any(axis=other))
            lo, hi = max(hit[0] - 1, 0), min(hit[-1] + 1, len(u) - 1)
            window.append((u[lo], u[hi]))
            filled = filled and 2 * (hit[-1] - hit[0] + 1) >= len(u)
        if filled:
            break
    peak = np.unravel_index(np.argmax(log_w), log_w.shape)
    stars = [math.exp(u[i]) for u, i in zip(axes, peak)]
    edges = [bool(lo == _LOG_LO or hi == _LOG_HI) for lo, hi in window]
    return window, stars, float(log_w[peak]), edges


def _gregory_ends(nodes):
    """Node weights, in steps, of Gregory's rule on an axis of ``nodes`` >= 3.

    The end-corrected trapezoid: the three nodes at each end take 3/8,
    7/6 and 23/24 of a step, every other node one step.  For even steps
    and at least 6 nodes, where the weight does not vanish at the
    window's ends, as on a posterior that reaches the box edge, it errs
    by O(h^4), the trapezoid by O(h^2).  All weights are positive:
    averages stay in a grid's range.
    """
    ends = np.ones(nodes)
    ends[:3] *= _GREGORY_ENDS
    ends[-3:] *= _GREGORY_ENDS[::-1]
    return ends


def _axis_rules(u):
    """Per-node weights of one axis ``u`` of a level.

    Gregory's rule on every node, the same rule on the every-other-node
    subgrid (0 between its nodes), and whether a node lies within one
    scan step of the box edge.  A scan step, (_LOG_HI - _LOG_LO) /
    (_SCAN_NODES - 1) in ln alpha or ln beta, is a fixed width, so the
    weight's share near the edge does not shrink as the levels refine.
    """
    coarse = np.zeros(len(u))
    coarse[::2] = _gregory_ends(len(coarse[::2]))
    step = (_LOG_HI - _LOG_LO) / (_SCAN_NODES - 1)
    return _gregory_ends(len(u)), coarse, (u <= _LOG_LO + step) | (u >= _LOG_HI - step)


def _tiles(nodes):
    """Slices of at most _TILE_NODES + 1 nodes that cover an axis of ``nodes``."""
    count = max(1, -(-(nodes - 1) // _TILE_NODES))
    cuts = [(nodes - 1) * k // count for k in range(count)] + [nodes]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _contract(grid, vectors):
    """The sum over all nodes of ``grid`` times one weight vector per axis."""
    for v in reversed(vectors):
        grid = grid @ v
    return float(grid)


def _tile_sums(w, grids, fine, coarse, near, increments):
    """Weighted sums of one tile with weights ``w``, for ``_level_averages``.

    The total weight by each rule, the weight on nodes near the box edge
    on some axis, then each grid's weighted sum by each rule.
    ``increments`` holds the tile's sparse weight increments of each rule,
    as (node indices, values).  The grids are overwritten.
    """
    (fine_at, fine_add), (coarse_at, coarse_add) = increments
    sums = [_contract(w, fine) + fine_add @ w[fine_at],
            _contract(w, coarse) + coarse_add @ w[coarse_at], 0.0]
    for k in range(len(fine)):   # near on axis k, not near on any before it
        vectors = [f * ~n for f, n in zip(fine[:k], near[:k])]
        sums[2] += _contract(w, vectors + [fine[k] * near[k], *fine[k + 1:]])
    near_at = np.logical_or.reduce([n[i] for n, i in zip(near, fine_at)])
    sums[2] += (fine_add * near_at) @ w[fine_at]
    for g in grids:
        g *= w
        sums += [_contract(g, fine) + fine_add @ g[fine_at],
                 _contract(g, coarse) + coarse_add @ g[coarse_at]]
    return sums


def _hinge_weights(hinge, ua, ub):
    """Increments to the node weights of Gregory's rule on ``ua`` x ``ub`` at a bend.

    ``hinge`` locates on (ln alpha, ln beta) axes where the log weight
    bends as smooth + max(0, g), g rising along each alpha row (see
    ``hyperprior.kl_hinge``).  Where g crosses 0, the weight f = F e^max(0, g)
    jumps in every derivative by that of s = F (e^g - 1), a smooth function
    that vanishes there and is known on every node from f and g.  With the
    crossing at the fraction theta of a beta cell of width h, Gregory's rule
    errs by -sum_k h^k B_k(1 - theta) / k! d^(k-1)s/du^(k-1), with B_k the
    Bernoulli polynomials: B_2 for the slope jump, as the rule's far end
    sees the jumped slope too.  The cubic through s on the four nodes
    around the crossing gives the terms k = 2, 3, 4, as weights on those
    nodes, in steps.  Returns their (alpha, beta) node indices and values.
    """
    rows, j, cols, g = hinge(ua, ub)
    if not len(rows):
        return (rows, rows), np.zeros(0)
    at = (np.arange(len(j)), j - cols[:, 0])   # the crossing cell in each stencil
    g_lo, g_hi = g[at], g[at[0], at[1] + 1]
    theta = np.clip(g_lo / (g_lo - g_hi), 0.0, 1.0)[:, None]
    # the cubic through s on the stencil, in x = steps from the crossing,
    # enters with its x^(k-1) coefficient times B_k(1 - theta) / k; a node's
    # Lagrange cubic has the coefficients (e2, -e1, 1) / d, from the sum e1
    # and the pairwise products e2 of the other three nodes' x
    x = cols - j[:, None] - theta
    e1 = x.sum(axis=1, keepdims=True) - x
    e2 = (x.sum(axis=1, keepdims=True) ** 2 - (x * x).sum(axis=1, keepdims=True)) / 2.0 - x * e1
    per_s = ((theta * theta - theta + 1.0 / 6.0) / 2.0 * e2
             + theta * (theta - 0.5) * (theta - 1.0) / 3.0 * e1
             + ((theta * (theta - 1.0)) ** 2 - 1.0 / 30.0) / 4.0) / _LAGRANGE_DENOMINATORS
    s_per_f = np.expm1(g) * np.exp(-np.maximum(g, 0.0))
    add = _gregory_ends(len(ua))[rows, None] * per_s * s_per_f
    return (np.repeat(rows, 4), cols.ravel()), add.ravel()


def _level_hinges(hinge, axes, subgrid=None):
    """Hinge increments of a level's two rules, for ``_level_averages``.

    Those of Gregory's rule on all nodes of ``axes``, then of its
    every-other-node subgrid, on the subgrid's own cells and steps.  The
    subgrid's are those of the rule on all nodes of the level before,
    ``subgrid``, when given; a subgrid row crosses only where its full
    row does.
    """
    fine = _hinge_weights(hinge, *axes)
    if subgrid is None:
        subgrid = _hinge_weights(hinge, *(u[::2] for u in axes)) if len(fine[1]) else fine
    (rows, cols), add = subgrid
    return [fine, ((2 * rows, 2 * cols), add)]


def _in_tile(increments, tile):
    """The ``increments`` on nodes of ``tile``, indexed within it."""
    at, add = increments
    inside = np.logical_and.reduce([(s.start <= i) & (i < s.stop) for i, s in zip(at, tile)])
    return tuple(i[inside] - s.start for i, s in zip(at, tile)), add[inside]


def _level_averages(log_weight, moments, axes, hinges=None):
    """Posterior averages of ``moments`` on the nodes of one level.

    Returns the Gregory averages of each moment grid on all nodes of
    ``axes`` and on their every-other-node subgrid, and the share of the
    weight within one scan step of the box edge.  ``log_weight`` and
    ``moments`` are evaluated on tiles of at most _TILE_NODES + 1 nodes
    per axis, so a level's working memory stays that of one tile however
    many nodes it has.  ``hinges``, if given, holds the sparse weight
    increments of both rules (``_level_hinges``); each tile adds those on
    its own nodes.  Both return new arrays, which this overwrites.
    Each tile's sums are taken against its own largest log weight and
    rescaled to the level's largest at the end, so no average depends on
    a shift of the log weight.
    """
    rules = [_axis_rules(u) for u in axes]
    nothing = (tuple(np.zeros(0, dtype=int) for _ in axes), np.zeros(0))
    increments = hinges or [nothing, nothing]
    tops, sums = [], []
    for tile in itertools.product(*(_tiles(len(u)) for u in axes)):
        args = [u[s] for u, s in zip(axes, tile)]
        fine, coarse, near = zip(*[[r[s] for r in rule] for rule, s in zip(rules, tile)])
        w = log_weight(*args)
        tops.append(w.max())
        w -= tops[-1]
        np.exp(w, out=w)
        sums.append(_tile_sums(w, moments(*args), fine, coarse, near,
                               [_in_tile(inc, tile) for inc in increments]))
    scale = np.exp(np.array(tops) - max(tops))
    fine_w, coarse_w, edge, *grid_sums = scale @ np.array(sums)
    return ([s / fine_w for s in grid_sums[::2]],
            [s / coarse_w for s in grid_sums[1::2]], edge / fine_w)


def _quadrature(log_weight, moments, names, hinge=None):
    """Posterior averages of ``moments`` over the whole box.

    Scans for the window, then evaluates the log weight and the moment
    grids once per level, on _FIRST_NODES nodes per axis, doubling the
    steps until every average agrees to _QUAD_TOL relative with the
    average over the every-other-node subgrid of the same evaluation, or
    until _MAX_NODES.  Returns ``_mean_std`` of the last level's averages,
    and the diagnostics of the run; their ``quad_error`` is the largest
    change of a returned number between the level and its subgrid, and
    ``converged`` says whether the last level met _QUAD_TOL.  ``names``
    label the axes in the diagnostics, in the order of ``log_weight``'s
    arguments, and set their number.  ``hinge``, if given, locates the
    bend of the log weight on each level's two axes, for the node weights
    of ``_level_hinges``: left alone, the KL prior's bend would hold
    Gregory's rule to O(h^2).
    """
    window, stars, top, edges = _scan(log_weight, len(names))
    nodes, hinges = _FIRST_NODES, None
    while True:
        axes = [np.linspace(lo, hi, nodes) for lo, hi in window]
        if hinge:   # the level before has this one's subgrid for its nodes
            hinges = _level_hinges(hinge, axes, hinges[0] if hinges else None)
        fine, coarse, edge_mass = _level_averages(log_weight, moments, axes, hinges)
        converged = all(abs(f - c) <= _QUAD_TOL * abs(f)
                        for f, c in zip(fine, coarse))
        if converged or nodes >= _MAX_NODES:
            break
        nodes = 2 * nodes - 1
    diag = {"log_evidence_at_max": top, "edge_mass": edge_mass,
            "converged": converged}
    for name, star, edge in sorted(zip(names, stars, edges)):   # alpha first
        diag[f"{name}_star"] = star
        diag[f"grid_bins_{name}"] = nodes
        diag[f"boundary_{name}"] = edge
    out, out_sub = _mean_std(fine), _mean_std(coarse)
    diag["quad_error"] = max(abs(f - c) for f, c in zip(out, out_sub))
    return out, diag


def _mean_std(averages):
    """The mean, then the spread sqrt(<D^2> - <D>^2) if a second moment follows."""
    first, *second = averages
    return (first, *(math.sqrt(max(0.0, s - first * first)) for s in second))


def _evidence_search(u, log_w):
    """The search for one sample's evidence maximum, as a generator.

    It yields each list of concentrations where it needs the evidence
    gradient, is sent the gradients there, and returns the ln alpha of the
    maximum, bracketed to _DP_TOL.  The bracket [lo, hi] keeps the
    gradient rising at lo and not at hi, unless that end is the box edge.
    The best node of the whole-box scan, ``log_w`` on the ln alpha nodes
    ``u``, and its neighbours give the first bracket.  From there, secant
    steps in ln alpha on s = alpha g(alpha), through the last two
    iterates, move an iterate whose gradient sign shrinks the bracket.
    The first iterate, a repeated s, and a step that leaves the bracket or
    fails to halve move to the bracket's midpoint instead.  Once a step
    falls below _DP_TOL / 2, a probe on each side closes the bracket.
    """
    i = int(np.argmax(log_w))
    lo, hi = float(u[max(i - 1, 0)]), float(u[min(i + 1, len(u) - 1)])
    x, last_step, x0, s0 = float(u[i]), hi - lo, math.nan, math.nan
    while True:
        a = math.exp(x)
        g, = yield [a]
        if g > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= _DP_TOL:
            return 0.5 * (lo + hi)
        s = a * g   # secant on s(u) = a g(a); a nan step is not taken
        step = (x - x0) * s / (s0 - s) if s != s0 else math.nan
        x0, s0 = x, s
        if abs(step) < 0.5 * _DP_TOL:
            probes = x + step + np.array([-0.4, 0.4]) * _DP_TOL
            left, right = yield np.exp(probes).tolist()
            if left > 0.0 >= right:
                return x + step
        elif lo < x + step < hi and abs(step) < 0.5 * last_step:
            x, last_step = x + step, abs(step)
            continue
        x, last_step = 0.5 * (lo + hi), hi - lo


def _evidence_argmax(table, samples):
    """ln alpha of each listed sample's evidence maximum (``_evidence_search``).

    The searches advance in lockstep: one evidence call scans the whole
    box for all of them, then one gradient call per step serves every
    search still running.
    """
    u = np.linspace(_LOG_LO, _LOG_HI, _SCAN_NODES)
    scans = log_evidence_grid(table, np.tile(np.exp(u), len(samples)),
                              np.repeat(samples, len(u))).reshape(len(samples), -1)
    searches = {s: _evidence_search(u, scan) for s, scan in zip(samples, scans)}
    asks = {s: next(search) for s, search in searches.items()}
    found = {}
    while asks:
        grads = log_evidence_gradient(table, [a for ask in asks.values() for a in ask],
                                      [s for s, ask in asks.items() for _ in ask]).tolist()
        for s, ask in list(asks.items()):
            try:
                asks[s] = searches[s].send(grads[:len(ask)])
            except StopIteration as end:
                found[s] = end.value
                del asks[s]
            del grads[:len(ask)]
    return [found[s] for s in samples]


def maximize_log_posterior(table):
    """Per-sample evidence maximizers, the concentrations of dp.

    Works in (ln alpha, ln beta) over the box [1e-6, 1e6]^2, where the
    evidence separates: each coordinate's maximum is bracketed to 1e-12
    in ln alpha on the sign of the analytic evidence gradient (see
    ``_evidence_search``), the two searches sharing their evidence calls.
    A sample with at most one observation has a flat evidence, 1/K at
    every concentration: its coordinate is pinned at 1.0 and flagged as
    boundary.
    """
    check_K(check_table(table).K)
    totals = {1: table.N, 2: table.M}
    searched = [s for s in (1, 2) if totals[s] > 1]
    u_star = {1: 0.0, 2: 0.0}
    if searched:
        u_star.update(zip(searched, _evidence_argmax(table, searched)))
    a_star, b_star = math.exp(u_star[1]), math.exp(u_star[2])
    edges = [totals[s] < 2 or _at_edge(u_star[s]) for s in (1, 2)]
    f = float(log_evidence_grid(table, [a_star, b_star], [1, 2]).sum())
    return PosteriorMax(a_star, b_star, f, *edges)


def _canonical_orientation(table):
    """Deterministic sample order for exactly swap-symmetric estimators.

    The squared-Hellinger estimators are symmetric in the two samples,
    but their sums run in a fixed order (the table's rows, the
    quadrature's (alpha, beta) grid), so swapping the samples changes
    the rounding of the result.  Computing on a canonical orientation
    restores exact symmetry.  Returns that table and the caller's names
    of its two concentrations.
    """
    order = np.lexsort((table.n, table.m))
    swapped = MultiplicityTable(n=table.m[order], m=table.n[order],
                                nu=table.nu[order], K=table.K, N=table.M,
                                M=table.N)
    kept, swap = ((t.N, t.M, t.n.tobytes(), t.m.tobytes(), t.nu.tobytes())
                  for t in (table, swapped))
    if kept <= swap:
        return table, ("alpha", "beta")
    return swapped, ("beta", "alpha")


def _dpm_report(table, log_prior, moment_grids, names=("alpha", "beta"), hinge=None):
    check_K(check_table(table).K)
    log_hinge = None if hinge is None else (
        lambda ua, ub: hinge(np.exp(ua), np.exp(ub), table.K))
    out, diag = _quadrature(
        _dpm_log_weight(table, log_prior),
        lambda ua, ub: moment_grids(table, np.exp(ua), np.exp(ub)), names, log_hinge)
    return EstimateReport(*out, diagnostics=diag)


def estimate_dkl_dpm(table):
    """Mixture estimate of D_KL(q||t) with its posterior spread."""
    return _dpm_report(table, log_weight_kl, kl_moment_grids, hinge=kl_hinge)


def estimate_hellinger_dpm(table):
    """Mixture estimate of the squared Hellinger distance DH^2(q, t)."""
    table, names = _canonical_orientation(check_table(table))
    return _dpm_report(table, log_weight_hellinger,
                       lambda *grid_args: [hellinger_sq_grid(*grid_args)], names)


def _dp_report(table, mean_grid, names=("alpha", "beta")):
    mx = maximize_log_posterior(table)
    value = mean_grid(table, [mx.alpha_star], [mx.beta_star])[0, 0]
    if names[0] == "beta":   # the table was swapped: name the caller's samples
        mx = PosteriorMax(mx.beta_star, mx.alpha_star, mx.log_evidence_at_max,
                          mx.boundary_beta, mx.boundary_alpha)
    return EstimateReport(float(value), None, asdict(mx))


def estimate_dkl_dp(table):
    """Posterior mean D_KL at the per-sample evidence maximizers."""
    return _dp_report(table, dkl_grid)


def estimate_hellinger_dp(table):
    """Posterior mean DH^2 at the per-sample evidence maximizers."""
    table, names = _canonical_orientation(check_table(table))
    return _dp_report(table, hellinger_sq_grid, names)


# --- plugins and Z --------------------------------------------------------

def _pseudo_counts(table, scheme):
    if scheme == "naive":
        return 0.0, 0.0
    if scheme == "jeffreys":
        return 0.5, 0.5
    if scheme == "trybula":
        return math.sqrt(table.N) / table.K, math.sqrt(table.M) / table.K
    if scheme == "perks":
        k1 = table.observed_categories(1)
        k2 = table.observed_categories(2)
        if k1 == 0 or k2 == 0:
            raise ValueError("perks pseudo-counts need a non-empty sample")
        return 1.0 / k1, 1.0 / k2
    raise ValueError(f"unknown plugin scheme {scheme!r}")


def _plugin_frequencies(table, scheme):
    a, b = _pseudo_counts(table, scheme)
    q_den = table.N + table.K * a
    t_den = table.M + table.K * b
    if q_den <= 0 or t_den <= 0:
        raise ValueError(f"{scheme} plugin undefined for an empty sample")
    q = (table.n + a) / q_den
    t = (table.m + b) / t_den
    return q, t


def estimate_dkl_plugin(table, scheme):
    """Plugin D_KL from pseudo-count frequencies.

    With zero pseudo-counts the terms where the second sample is empty
    are dropped (the naive convention); zero-numerator terms vanish as
    0 ln 0 = 0.
    """
    check_table(table)
    q, t = _plugin_frequencies(table, scheme)
    keep = (q > 0) & (t > 0)
    nu = table.nu[keep].astype(float)
    qk, tk = q[keep], t[keep]
    return float(np.dot(nu, qk * (np.log(qk) - np.log(tk))))


def estimate_hellinger_plugin(table, scheme):
    """Plugin DH^2 = 1 - sum_i sqrt(q_i t_i) from pseudo-count frequencies."""
    table, _ = _canonical_orientation(check_table(table))
    q, t = _plugin_frequencies(table, scheme)
    bc = float(np.dot(table.nu.astype(float), np.sqrt(q * t)))
    return max(0.0, 1.0 - bc)   # bc <= 1, but rounding can lift it an ulp above


def estimate_dkl_zhang(table):
    """Bias-corrected KL estimate (resummed closed form).

    sum_i (n_i/N) [psi(M+1) - psi(m_i+1) - psi(N) + psi(n_i)]; categories
    absent from the first sample contribute nothing.
    """
    check_table(table)
    if table.N < 1:
        raise ValueError("Z estimator needs a non-empty first sample")
    from .specfun import delta_psi

    keep = table.n > 0
    n = table.n[keep].astype(float)
    m = table.m[keep].astype(float)
    nu = table.nu[keep].astype(float)
    cross = delta_psi(table.M + 1.0, m + 1.0)
    ent = delta_psi(float(table.N), n)
    return float(np.dot(nu, (n / table.N) * (cross - ent)))


# --- dispatch ---------------------------------------------------------------

def check_estimator(name, divergence):
    """Raise ValueError unless ``name`` estimates ``divergence``."""
    if divergence not in DIVERGENCES:
        raise ValueError(f"unknown divergence {divergence!r}")
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {name!r}")
    if name == "zhang" and divergence != "kl":
        raise ValueError("the zhang estimator is defined for KL only")


class EstimatorError(ValueError):
    """An estimator rejected its table (a domain error, not a bad name)."""


def estimate(table, name, divergence="kl"):
    """Run the estimator ``name`` for ``divergence`` ("kl" or "hellinger2").

    Names are "dpm", "dp", "zhang" and the plugin schemes.  Every result
    is an EstimateReport; plugins and zhang leave its diagnostics empty.
    An unknown name raises ValueError; a table the estimator rejects
    raises EstimatorError with the estimator's message.
    """
    check_estimator(name, divergence)
    kl = divergence == "kl"
    try:
        if name == "dpm":
            return estimate_dkl_dpm(table) if kl else estimate_hellinger_dpm(table)
        if name == "dp":
            return estimate_dkl_dp(table) if kl else estimate_hellinger_dp(table)
        if name == "zhang":
            return EstimateReport(estimate_dkl_zhang(table))
        if kl:
            return EstimateReport(estimate_dkl_plugin(table, name))
        return EstimateReport(estimate_hellinger_plugin(table, name))
    except ValueError as exc:
        raise EstimatorError(str(exc)) from exc


# --- entropy mixture (single sample) ---------------------------------------

def estimate_entropy_nsb(counts, K):
    """Evidence-mixture entropy estimate for one sample of counts.

    The weight over alpha is evidence times the entropy-flattening prior
    |dA/dalpha|, integrated over the whole box in ln alpha by the same
    quadrature as the divergence mixtures.
    """
    counts = np.asarray(counts)
    table = build_table(counts, np.zeros(len(counts), dtype=np.int64), K)
    check_K(table.K)

    def log_weight(ua):
        a = np.exp(ua)
        return (
            log_evidence_grid(table, a, 1)
            + np.log(prior_entropy_slope(a, table.K))
            + ua
        )

    (value,), diag = _quadrature(
        log_weight, lambda ua: [entropy_grid(table, np.exp(ua), 1)], ("alpha",))
    return EstimateReport(value, None, diag)
