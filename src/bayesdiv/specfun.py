"""Gamma-family special functions for count-data posteriors.

Everything here accepts floats or numpy arrays (broadcasting applies) and
works in natural log units.  Beside the trigamma function there are two
cancellation-free differences: ``delta_psi``, a digamma difference whose
nearby arguments do not cancel, and ``log_half_ratio``, the log Gamma
ratio behind every B(1/2, .) ratio of the Hellinger formulas.
"""

import numpy as np
from scipy import special as _sp

__all__ = [
    "trigamma",
    "delta_psi",
    "log_half_ratio",
]


def check_positive(x, name):
    """``x`` as a float array; ValueError unless non-empty, finite and > 0."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    # a nan makes the minimum nan, an infinity the maximum or minimum infinite
    if not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError(f"{name} must be finite and strictly positive")
    return arr


def float_if_scalar(out, *args):
    """``out`` as a float when every one of ``args`` is a scalar, else as is."""
    return float(out) if all(np.ndim(a) == 0 for a in args) else out


def trigamma(x):
    """psi_1(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    arr = check_positive(x, "x")
    out = _sp.zeta(2.0, arr)   # psi_1(x) = zeta(2, x), polygamma(1, x) without its digamma
    return float_if_scalar(out, x)


_SERIES_FROM = 30.0   # log_half_ratio and its slope sum the asymptotic series from here on


def log_half_ratio(x):
    """ln Gamma(x + 1/2) - ln Gamma(x) - (1/2) ln x, to full relative precision.

    The value shrinks like -1/(8x); a difference of ln Gamma values loses
    its digits above x ~ 1e3, so from _SERIES_FROM on the asymptotic series
    is summed instead (its truncation error there is below 1e-13 relative).
    """
    x = np.asarray(x, dtype=float)
    big = np.maximum(x, _SERIES_FROM)
    series = (
        -1 / (8 * big) + 1 / (192 * big**3)
        - 1 / (640 * big**5) + 17 / (14336 * big**7)
    )
    small = np.minimum(x, _SERIES_FROM)
    direct = _sp.gammaln(small + 0.5) - _sp.gammaln(small) - 0.5 * np.log(small)
    return np.where(x >= _SERIES_FROM, series, direct)


def _half_ratio_slope(x):
    # derivative of log_half_ratio's asymptotic series, for x >= _SERIES_FROM
    return 1 / (8 * x**2) - 1 / (64 * x**4) + 1 / (128 * x**6) - 17 / (2048 * x**8)


# --- digamma differences -------------------------------------------------
#
# delta_psi(z1, z2) = psi(z1) - psi(z2).  Posterior formulas evaluate this
# with z1 ~ z2 (e.g. N + K*alpha vs n_i + alpha for concentrated counts),
# where subtracting two digamma values loses most significant digits.  The
# kernel below raises both arguments in lockstep, accumulating the exact
# recurrence terms d/((z1+k)(z2+k)), then takes the asymptotic series of
# the *difference*, which is free of cancellation term by term.  Each
# element takes its own number of steps, enough to lift its smaller
# argument to _RAISE_TO, so its value does not depend on the rest of the
# batch it is evaluated in.  An element already past _RAISE_TO takes no
# step; the series runs to its 1/z^10 term, so that even for nearby
# arguments its truncation stays near 2e-16 relative there.

_RAISE_TO = 18.0
_CHUNK = 2048   # elements per pass of the recurrence, which holds (18, _CHUNK) terms
_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)   # B_2k / 2k


def _recurrence(big, small, gap, steps):
    """sum over k < steps of gap / ((big + k)(small + k)), elementwise, 1-d.

    The terms of every k are formed at once, _CHUNK elements at a time,
    and each element's terms are added in k order from zero, so the sum
    is the one a loop over k would make.
    """
    out = np.zeros_like(small)
    k = np.arange(steps.max())[:, None]
    for lo in range(0, len(small), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        terms = gap[part] / ((big[part] + k) * (small[part] + k))
        terms *= k < steps[part]   # an element's steps beyond its own add 0
        for row in terms:
            out[part] += row
    return out


def _delta_psi_kernel(big, small, gap):
    """psi(big) - psi(small) for big = small + gap, gap >= 0, elementwise."""
    steps = np.maximum(np.ceil(_RAISE_TO - small), 0.0)
    acc = np.zeros_like(small)
    low = steps > 0.0   # the recurrence runs on these elements only
    if low.any():
        acc[low] = _recurrence(big[low], small[low], gap[low], steps[low])
    a, b, d = big + steps, small + steps, gap
    # psi(z) ~ ln z - 1/(2z) - sum_k c_k z^-2k, and c_k (b^-2k - a^-2k) = c_k d (a + b)
    # u v h_(k-1), where u = 1/a^2, v = 1/b^2 and h_k = u h_(k-1) + v^k = sum_i u^i v^(k-i)
    u, v = 1.0 / (a * a), 1.0 / (b * b)
    h, vk, tail = 1.0, v, 0.0
    for c in _SERIES:
        tail = tail + c * h
        h, vk = u * h + vk, vk * v
    return acc + np.log1p(d / b) + d * (0.5 / (a * b) + (a + b) * (u * v) * tail)


def delta_psi(z1, z2):
    """psi(z1) - psi(z2), accurate even when z1 and z2 nearly coincide.

    Scalars and arrays (broadcast together) take the same route: the
    paired recurrence/asymptotic-difference kernel above.
    """
    a1 = check_positive(z1, "z1")
    a2 = check_positive(z2, "z2")
    big = np.maximum(a1, a2)
    small = np.minimum(a1, a2)
    out = np.sign(a1 - a2) * _delta_psi_kernel(big, small, big - small)
    return float_if_scalar(out, z1, z2)
