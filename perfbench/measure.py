"""Pure measurement helpers: percentiles, the tail rule and validity checks.

Nothing here imports bayesdiv, so the rules can be tested on their own.
"""

import math

TAIL_BEYOND = 10

# KL estimators whose value is a divergence between two proper
# distributions, or a posterior mean of one, and so never negative.
# `naive` drops the categories the second sample missed and `zhang` is
# bias-corrected; both can legitimately go below zero.
NONNEGATIVE_KL = frozenset({"dpm", "dp", "jeffreys", "trybula", "perks"})


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, n).  The value is the order statistic
    with exactly `beyond` larger samples; its percentile uses the
    inclusive convention, where sorted index k of n sits at
    100 k / (n - 1).  With `beyond` samples or fewer no percentile
    qualifies, and the maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - 1 - beyond
    return xs[k], 100.0 * k / (n - 1), n


def check_value(estimator, divergence, value, posterior_std=None):
    """Reason an estimator result is invalid, or None when it is valid.

    `divergence` is "kl", "hellinger2" or "entropy".
    """
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"non-finite value {value!r}"
    if divergence == "kl" and estimator in NONNEGATIVE_KL and value < 0:
        return f"negative KL {value!r}"
    if divergence == "hellinger2" and not 0.0 <= value <= 1.0:
        return f"H2 outside [0, 1]: {value!r}"
    if estimator == "dpm" and divergence == "kl":
        if posterior_std is None:
            return "posterior_std missing"
        if not math.isfinite(posterior_std) or posterior_std < 0:
            return f"bad posterior_std {posterior_std!r}"
    return None


def check_cli(exit_code, payload, estimator, divergence):
    """Validity of one `bayesdiv estimate` call: exit code, JSON, value."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if not isinstance(payload, dict) or "value" not in payload:
        return "CLI JSON without value"
    return check_value(
        estimator, divergence, payload["value"], payload.get("posterior_std")
    )


def rel_err(estimate, truth):
    return abs(estimate / truth - 1.0)
