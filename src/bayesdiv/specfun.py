"""Gamma-family special functions for count-data posteriors.

Everything here accepts floats or numpy arrays (broadcasting applies) and
works in natural log units.  The one nonstandard routine is ``delta_psi``,
a digamma difference computed so that nearby arguments do not cancel.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "delta_psi",
    "log_beta2",
    "log_multivariate_beta",
]


def _validate_positive(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be finite and strictly positive")
    return arr


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    arr = _validate_positive(x, "x")
    out = _sp.gammaln(arr)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    arr = _validate_positive(x, "x")
    out = _sp.digamma(arr)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def trigamma(x):
    """psi_1(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    arr = _validate_positive(x, "x")
    out = _sp.polygamma(1, arr)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_beta2(z1, z2):
    """ln B(z1, z2) for the two-argument Beta function."""
    a1 = _validate_positive(z1, "z1")
    a2 = _validate_positive(z2, "z2")
    out = _sp.betaln(a1, a2)
    if np.ndim(z1) == 0 and np.ndim(z2) == 0:
        return float(out)
    return out


def log_multivariate_beta(values, multiplicities=None):
    """ln B(x) = sum_j ln Gamma(x_j) - ln Gamma(sum_j x_j).

    ``values`` may list every component, or distinct components paired with
    integer ``multiplicities`` (so a vector with many repeated entries is
    passed in compressed form).
    """
    vals = _validate_positive(values, "values")
    vals = np.atleast_1d(vals)
    if multiplicities is None:
        mult = np.ones_like(vals)
    else:
        mult = np.atleast_1d(np.asarray(multiplicities, dtype=float))
        if mult.shape != vals.shape:
            raise ValueError("multiplicities must match values in shape")
        if np.any(mult < 1) or np.any(mult != np.round(mult)):
            raise ValueError("multiplicities must be positive integers")
    total = float(np.dot(mult, vals))
    return float(np.dot(mult, _sp.gammaln(vals)) - _sp.gammaln(total))


# --- digamma differences -------------------------------------------------
#
# delta_psi(z1, z2) = psi(z1) - psi(z2).  Posterior formulas evaluate this
# with z1 ~ z2 (e.g. N + K*alpha vs n_i + alpha for concentrated counts),
# where subtracting two digamma values loses most significant digits.  The
# kernel below raises both arguments in lockstep, accumulating the exact
# recurrence terms d/((z1+k)(z2+k)), then takes the asymptotic series of
# the *difference*, which is free of cancellation term by term.

_RAISE_TO = 18.0


def _delta_psi_kernel(big, small, gap):
    """psi(big) - psi(small) for big = small + gap, gap >= 0, elementwise."""
    acc = np.zeros_like(small)
    lo = float(small.min()) if small.size else _RAISE_TO
    for _ in range(int(max(0.0, math.ceil(_RAISE_TO - lo)))):
        mask = small < _RAISE_TO
        if not mask.any():
            break
        acc[mask] += gap[mask] / (big[mask] * small[mask])
        big = np.where(mask, big + 1.0, big)
        small = np.where(mask, small + 1.0, small)
    a, b, d = big, small, gap
    ab = a * b
    a2, b2 = a * a, b * b
    a4, b4 = a2 * a2, b2 * b2
    apb = a + b
    series = np.log1p(d / b)
    series += d * (0.5 / ab)
    series += d * apb / (12.0 * a2 * b2)
    series -= d * apb * (a2 + b2) / (120.0 * a4 * b4)
    series += d * apb * (a4 + a2 * b2 + b4) / (252.0 * a4 * a2 * b4 * b2)
    series -= d * apb * (a2 + b2) * (a4 + b4) / (240.0 * a4 * a4 * b4 * b4)
    return acc + series


def delta_psi(z1, z2):
    """psi(z1) - psi(z2), accurate even when z1 and z2 nearly coincide.

    Scalars and arrays (broadcast together) take the same route: the
    paired recurrence/asymptotic-difference kernel above.
    """
    a1 = _validate_positive(z1, "z1")
    a2 = _validate_positive(z2, "z2")
    b1, b2 = np.broadcast_arrays(a1, a2)
    big = np.maximum(b1, b2)
    small = np.minimum(b1, b2)
    out = np.sign(b1 - b2) * _delta_psi_kernel(big, small, big - small)
    if np.ndim(z1) == 0 and np.ndim(z2) == 0:
        return float(out)
    return out
