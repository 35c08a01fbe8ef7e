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

Baselines: pseudo-count plugins (naive / jeffreys / trybula / perks), the
bias-corrected Z estimator for KL, and the evidence-mixture entropy
estimator (NSB) used for single samples, which runs the same quadrature
in one dimension.  ``estimate`` dispatches on estimator and divergence
names.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .counts import MultiplicityTable, build_table
from .hyperprior import (
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
    log_evidence,
    log_evidence_curvature,
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
_QUAD_TOL = 1e-6      # relative agreement of a level with its subgrid
_DP_TOL = 1e-12       # bracket width in ln alpha of a dp evidence maximum
_GREGORY_ENDS = np.array([3 / 8, 7 / 6, 23 / 24])   # end-node weights, in steps

PLUGIN_SCHEMES = ("naive", "jeffreys", "trybula", "perks")
ESTIMATOR_NAMES = ("dpm", "dp") + PLUGIN_SCHEMES + ("zhang",)
DIVERGENCES = ("kl", "hellinger2")


@dataclass
class EstimateReport:
    """Estimate plus run metadata.

    ``posterior_std`` is only filled by the KL mixture estimator (the one
    with a second-moment formula); everything else reports None.
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
        out += (log_evidence_grid(table, a, 1) + ua)[:, None]
        out += log_evidence_grid(table, b, 2) + ub
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


def _gregory_weights(log_w):
    """Normalized end-corrected trapezoid weights of a log-weight grid.

    Gregory's rule, for even steps and at least 6 nodes per axis: the
    three nodes at each end of an axis take 3/8, 7/6 and 23/24 of a step.
    Where the weight does not vanish at the window's ends, as on a
    posterior that reaches the box edge, it errs by O(h^4), the trapezoid
    by O(h^2).  All weights are positive: averages stay in a grid's range.
    """
    w = log_w - log_w.max()
    np.exp(w, out=w)
    ends = _GREGORY_ENDS.reshape((3,) + (1,) * (w.ndim - 1))
    for k in range(w.ndim):
        face = np.moveaxis(w, k, 0)
        face[:3] *= ends
        face[-3:] *= ends[::-1]
    w /= w.sum()
    return w


def _mixture_average(w, grids):
    """Averages sum(w * grid) under normalized weights ``w``."""
    return [float((w * g).sum()) for g in grids]


def _edge_mass(w, axes):
    """Share of the weights ``w`` on nodes within one scan step of the box edge.

    ``w`` is normalized, as from _gregory_weights.  A scan step,
    (_LOG_HI - _LOG_LO) / (_SCAN_NODES - 1) in ln alpha or ln beta, is a
    fixed width, so the share does not shrink as the quadrature refines
    its nodes.
    """
    step = (_LOG_HI - _LOG_LO) / (_SCAN_NODES - 1)
    near = np.zeros(w.shape, dtype=bool)
    for k, u in enumerate(axes):
        shape = [1] * w.ndim
        shape[k] = len(u)
        near |= ((u <= _LOG_LO + step) | (u >= _LOG_HI - step)).reshape(shape)
    return float(w[near].sum())


def _quadrature(log_weight, moments, dims, names=("alpha", "beta")):
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
    arguments.
    """
    window, stars, top, edges = _scan(log_weight, dims)
    nodes = _FIRST_NODES
    while True:
        axes = [np.linspace(lo, hi, nodes) for lo, hi in window]
        log_w = log_weight(*axes)
        grids = moments(*axes)
        half = (slice(None, None, 2),) * dims
        w = _gregory_weights(log_w)
        fine = _mixture_average(w, grids)
        coarse = _mixture_average(_gregory_weights(log_w[half]),
                                  [g[half] for g in grids])
        converged = all(abs(f - c) <= _QUAD_TOL * abs(f)
                        for f, c in zip(fine, coarse))
        if converged or nodes >= _MAX_NODES:
            break
        nodes = 2 * nodes - 1
    diag = {"log_evidence_at_max": top, "edge_mass": _edge_mass(w, axes),
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


def _rising(table, us, which):
    """Where the evidence gradient is positive, at the nodes ``us`` of ln alpha."""
    return log_evidence_gradient(table, np.exp(us), which) > 0.0


def _evidence_argmax(table, which):
    """ln alpha of one sample's evidence maximum, bracketed to _DP_TOL.

    The bracket [lo, hi] keeps the gradient rising at lo and not at hi,
    unless that end is the box edge.  A whole-box scan brackets the best
    node.  From there, Newton steps in ln alpha, with the trigamma
    curvature, move an iterate whose gradient sign shrinks the bracket.
    A step that leaves the bracket or fails to halve is replaced by a
    gradient-sign scan of the bracket on _SCAN_NODES inner nodes.  Once a
    step falls below _DP_TOL / 2, a probe on each side closes the bracket.
    """
    u = np.linspace(_LOG_LO, _LOG_HI, _SCAN_NODES)
    i = int(np.argmax(log_evidence_grid(table, np.exp(u), which)))
    lo, hi = float(u[max(i - 1, 0)]), float(u[min(i + 1, len(u) - 1)])
    x, last_step = float(u[i]), hi - lo
    while True:
        a = math.exp(x)
        g = log_evidence_gradient(table, a, which)
        if g > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= _DP_TOL:
            return 0.5 * (lo + hi)
        # Newton on s(u) = a g(a), whose slope is a g + a^2 g'(a)
        slope = a * g + a * a * log_evidence_curvature(table, a, which)
        step = -a * g / slope if slope < 0.0 else math.inf
        if abs(step) < 0.5 * _DP_TOL:
            probes = x + step + np.array([-0.4, 0.4]) * _DP_TOL
            if tuple(_rising(table, probes, which)) == (True, False):
                return x + step
        elif lo < x + step < hi and abs(step) < 0.5 * last_step:
            x, last_step = x + step, abs(step)
            continue
        u = np.linspace(lo, hi, _SCAN_NODES + 2)[1:-1]
        rising = _rising(table, u, which)
        j = int(np.argmin(rising)) if not rising.all() else len(u)
        lo, hi = (float(u[j - 1]) if j > 0 else lo), (float(u[j]) if j < len(u) else hi)
        x, last_step = 0.5 * (lo + hi), hi - lo


def maximize_log_posterior(table):
    """Per-sample evidence maximizers, the concentrations of dp.

    Works in (ln alpha, ln beta) over the box [1e-6, 1e6]^2, where the
    evidence separates: each coordinate's maximum is bracketed to 1e-12
    in ln alpha on the sign of the analytic evidence gradient (see
    ``_evidence_argmax``).  An empty sample leaves its coordinate flat:
    it is pinned at 1.0 and flagged as boundary.
    """
    check_K(check_table(table).K)
    out = []
    for which, total in ((1, table.N), (2, table.M)):
        if total == 0:
            out.append((1.0, 0.0, True))
            continue
        u_star = _evidence_argmax(table, which)
        a_star = math.exp(u_star)
        out.append((a_star, log_evidence(table, a_star, which), _at_edge(u_star)))
    (a_star, f_a, edge_a), (b_star, f_b, edge_b) = out
    return PosteriorMax(a_star, b_star, f_a + f_b, edge_a, edge_b)


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


def _dpm_report(table, log_prior, moment_grids, names=("alpha", "beta")):
    check_K(check_table(table).K)
    out, diag = _quadrature(
        _dpm_log_weight(table, log_prior),
        lambda ua, ub: moment_grids(table, np.exp(ua), np.exp(ub)), 2, names)
    return EstimateReport(*out, diagnostics=diag)


def estimate_dkl_dpm(table):
    """Mixture estimate of D_KL(q||t) with its posterior spread."""
    return _dpm_report(table, log_weight_kl, kl_moment_grids)


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
    return float(1.0 - np.dot(table.nu.astype(float), np.sqrt(q * t)))


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
    cross = delta_psi(np.full_like(m, table.M + 1.0), m + 1.0)
    ent = delta_psi(np.full_like(n, float(table.N)), n)
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
        log_weight, lambda ua: [entropy_grid(table, np.exp(ua), 1)], 1)
    return EstimateReport(value, None, diag)
