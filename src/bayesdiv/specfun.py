"""Gamma-family special functions for count-data posteriors.

Everything here accepts floats or numpy arrays (broadcasting applies) and
works in natural log units.  Beside the trigamma function there are two
cancellation-free differences: ``delta_psi``, a digamma difference whose
nearby arguments do not cancel, and ``log_half_ratio``, the log Gamma
ratio behind every B(1/2, .) ratio of the Hellinger formulas.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "trigamma",
    "delta_psi",
    "log_half_ratio",
]


def _validate_positive(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be finite and strictly positive")
    return arr


def trigamma(x):
    """psi_1(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    arr = _validate_positive(x, "x")
    out = _sp.polygamma(1, arr)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_half_ratio(x):
    """ln Gamma(x + 1/2) - ln Gamma(x) - (1/2) ln x, to full relative precision.

    The value shrinks like -1/(8x); a difference of ln Gamma values loses
    its digits above x ~ 1e3, so from x = 30 on the asymptotic series is
    summed instead (its truncation error there is below 1e-13 relative).
    """
    x = np.asarray(x, dtype=float)
    big = np.maximum(x, 30.0)
    series = (
        -1 / (8 * big) + 1 / (192 * big**3)
        - 1 / (640 * big**5) + 17 / (14336 * big**7)
    )
    small = np.minimum(x, 30.0)
    direct = _sp.gammaln(small + 0.5) - _sp.gammaln(small) - 0.5 * np.log(small)
    return np.where(x >= 30.0, series, direct)


# --- digamma differences -------------------------------------------------
#
# delta_psi(z1, z2) = psi(z1) - psi(z2).  Posterior formulas evaluate this
# with z1 ~ z2 (e.g. N + K*alpha vs n_i + alpha for concentrated counts),
# where subtracting two digamma values loses most significant digits.  The
# kernel below raises both arguments in lockstep, accumulating the exact
# recurrence terms d/((z1+k)(z2+k)), then takes the asymptotic series of
# the *difference*, which is free of cancellation term by term.  Every
# element takes the same number of steps, enough to lift the smallest to
# _RAISE_TO; the terms are >= 0, so extra steps on elements that are
# already large keep their relative accuracy.

_RAISE_TO = 18.0


def _delta_psi_kernel(big, small, gap):
    """psi(big) - psi(small) for big = small + gap, gap >= 0, elementwise."""
    steps = max(0, math.ceil(_RAISE_TO - small.min())) if small.size else 0
    acc = np.zeros_like(small)
    for k in range(steps):
        acc += gap / ((big + k) * (small + k))
    a, b, d = big + steps, small + steps, gap
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
