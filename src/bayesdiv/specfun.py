"""Gamma-family special functions for count-data posteriors, in numpy alone.

Everything here accepts floats or numpy arrays (broadcasting applies) and
works in natural log units.  Beside the trigamma function and ``betaln``,
ln B(a, b), there are two cancellation-free differences: ``delta_psi``, a
digamma difference whose nearby arguments do not cancel, and
``log_half_ratio``, the log Gamma ratio behind every B(1/2, .) ratio of
the Hellinger formulas.  Each kernel lifts small arguments by Gamma's
recurrence, one exact term per step, then sums an asymptotic series;
every element takes its own steps, so its value does not depend on the
batch it is evaluated in.  ``stacked`` makes one kernel call serve
several arrays.
"""

import itertools
import math

import numpy as np

__all__ = [
    "trigamma",
    "betaln",
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


def stacked(fn, *groups):
    """``fn`` called once on several groups of arguments, its result split per group.

    Each group is a tuple of arrays of one shape, one per argument of
    ``fn``; a value that broadcasts comes as an ``np.broadcast_to`` view.
    The groups are laid end to end, so one call pays the kernel's fixed
    cost for all; each group's part of the result comes back in the
    group's shape.
    """
    shapes = [np.shape(group[0]) for group in groups]
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    out = fn(*(np.concatenate([np.ravel(a) for a in arrays]) for arrays in zip(*groups)))
    return [out[lo:hi].reshape(shape) for shape, lo, hi in zip(shapes, ends, ends[1:])]


_RAISE_TO = 18.0   # every kernel lifts its arguments by recurrence to here
_BLOCK = 4096       # elements a kernel takes at a time, so that its temporaries stay in cache
_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)   # B_2k / 2k
_BERNOULLI = tuple(2 * (k + 1) * c for k, c in enumerate(_SERIES))            # B_2k
_EXCESS_FROM = 8.0   # the log Gamma excess lifts its first argument only to here
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,   # B_2k / (2k (2k-1))
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def _blockwise(kernel, *args):
    """``kernel`` on arrays that broadcast together, _BLOCK elements at a time.

    Each block is a slice of the raveled arrays, so an element's value is
    the one a call on it alone would give.  The kernel's results, one per
    element along their last axis, are joined along it.
    """
    shape = np.broadcast(*args).shape
    size = math.prod(shape)
    if size <= _BLOCK:
        return kernel(*args)
    flat = [np.broadcast_to(a, shape).ravel() for a in args]
    out = np.concatenate([kernel(*(a[lo:lo + _BLOCK] for a in flat))
                          for lo in range(0, size, _BLOCK)], axis=-1)
    return out.reshape(out.shape[:-1] + shape)


def _steps(z, to=_RAISE_TO):
    """Recurrence steps that lift each element of ``z`` to ``to`` or above."""
    return np.maximum(np.ceil(to - z), 0.0)


def _recurrence(steps, term, *args):
    """sum over k < steps of term(k, *args), elementwise.

    The ``args`` are arrays of the shape of ``steps``, or numbers that
    every element shares; callers hand at most a _BLOCK of elements.  Only
    elements with steps > 0 take part.  Their terms of every k are formed
    at once, and each element's terms are added in k order from the first,
    so the sum is the one a loop over k would make (``_reduce_rows``).
    """
    out = np.zeros(steps.shape)
    low = steps > 0.0
    if not low.any():
        return out
    steps, args = steps[low], [a[low] if np.ndim(a) else a for a in args]
    k = np.arange(steps.max())[:, None]
    terms = term(k, *args)
    terms *= k < steps   # an element's steps beyond its own add 0
    out[low] = _reduce_rows(terms, np.add)
    return out


def _reduce_rows(terms, ufunc):
    """Each column of ``terms`` reduced row by row from the first: one reduce
    for two or more columns, and a loop for one, whose sum numpy pairs
    differently."""
    if terms.shape[1] > 1:
        return ufunc.reduce(terms, axis=0)
    out = terms[0].copy()
    for row in terms[1:]:
        ufunc(out, row, out=out)
    return out


def _horner(u, coefficients):
    """sum_k coefficients[k] u^k, formed in place, so that a large array
    makes no temporary per term."""
    out = np.full(np.shape(u), coefficients[-1])
    for c in reversed(coefficients[:-1]):
        out *= u
        out += c
    return out


def _psi_step(k, big, small, gap):
    # psi(big + k) - psi(small + k) less the same difference one step up
    return gap / ((big + k) * (small + k))


def trigamma(x):
    """psi_1(x) = d^2/dx^2 ln Gamma(x) for x > 0.

    The recurrence adds 1/(x + k)^2 up to y = x + s >= _RAISE_TO, and
    psi_1(y) ~ 1/y + 1/(2y^2) + sum_k B_2k / y^(2k+1) is summed through
    1/y^11, whose truncation stays near 2e-16 relative there.
    """
    return float_if_scalar(_blockwise(_trigamma, check_positive(x, "x")), x)


def _trigamma(z):
    steps = _steps(z)
    y = z + steps
    tail = _horner(1.0 / (y * y), _BERNOULLI)
    return _recurrence(steps, _psi_step, z, z, 1.0) + (1.0 + (0.5 + tail / y) / y) / y


# --- log Gamma differences ------------------------------------------------
#
# The excess E(z, m) = ln Gamma(z + m) - ln Gamma(z) - m ln z gives every
# log Gamma quantity here without differencing ln Gamma values, which are
# large where their difference is small.  Gamma's recurrence lifts z to
# y = z + s >= _EXCESS_FROM: E(z, m) = sum_{k<s} [m ln(1 + 1/(z+k)) -
# ln(1 + m/(z+k))] + E(y, m), and Stirling's series gives E(y, m) =
# (y + m - 1/2) ln(1 + m/y) - m + T(y + m) - T(y), with the tail T summed
# through 1/y^15: its truncation stays below 1e-16 from _EXCESS_FROM on,
# which so needs fewer steps than _RAISE_TO.

def _excess_lift(steps, z, m):
    """E(z, m) - E(z + steps, m), the sum over k < steps of m ln(1 + 1/(z + k))
    - ln(1 + m/(z + k)): its first part telescopes to m ln(1 + steps/z), and
    its second is the log of one product, whose factors are multiplied in k
    order as ``_recurrence`` adds its terms.  z is an array like steps, m an
    array like it or a number; callers hand at most a _BLOCK of elements."""
    out = np.zeros(steps.shape)
    low = steps > 0.0
    if low.any():
        steps, z = steps[low], z[low]
        m = m[low] if np.ndim(m) else m
        k = np.arange(steps.max())[:, None]
        factors = m / (z + k)
        factors *= k < steps   # an element's steps beyond its own multiply by 1
        factors += 1.0
        out[low] = m * np.log1p(steps / z) - np.log(_reduce_rows(factors, np.multiply))
    return out


def _stirling_tail(y):
    # ln Gamma(y) - (y - 1/2) ln y + y - ln(2 pi) / 2
    out = _horner(1.0 / (y * y), _STIRLING)
    out /= y
    return out


_TAIL_FROM = float(_stirling_tail(_EXCESS_FROM))


def _excess(lift, y, m, tail_up, tail):
    """E(z, m) from its ``lift`` E(z, m) - E(y, m), for y >= _EXCESS_FROM, and
    the tails T(y + m) and T(y) of Stirling's series."""
    out = lift + ((y + m - 0.5) * np.log1p(m / y) - m)
    out += tail_up - tail
    return out


def _log_gamma_excess(z, m):
    """ln Gamma(z + m) - ln Gamma(z) - m ln z for an array z > 0 and a number m >= 0."""
    steps = _steps(z, _EXCESS_FROM)
    y = z + steps
    return _excess(_excess_lift(steps, z, m), y, m, *_stirling_tail(np.stack([y + m, y])))


def betaln(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b) for a, b > 0.

    With lo = min(a, b) and hi = max(a, b) it is ln Gamma(lo) less
    ln Gamma(hi + lo) - ln Gamma(hi), taken as E(1, lo) - ln lo and
    E(hi, lo) + lo ln hi.  Neither loses digits to the other, so
    betaln(x, 1) is -ln x to an ulp or two however large x is.
    """
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    at = np.arange(a.size + b.size)
    out = _betaln(_own_parts(np.concatenate([a.ravel(), b.ravel()])),
                  at[:a.size].reshape(a.shape), at[a.size:].reshape(b.shape))
    return float_if_scalar(out, a, b)


def _own_parts(v):
    """What ``_betaln`` needs of each value v alone, as the rows of one array.

    v itself; ln Gamma(1 + v) = E(1, v) and ln v, for v the smaller
    argument; and for v the larger, the steps that lift it to y >=
    _EXCESS_FROM, y, and the tail T(y).  1 takes the same steps for every
    v, and one pass of the tail serves E(1, v) and T(y).
    """
    return _blockwise(_own_block, v)


_FROM_ONE = np.arange(1.0, _EXCESS_FROM)[:, None]   # 1 + k over the steps k that lift 1


def _own_block(v):
    steps = _steps(v, _EXCESS_FROM)
    y = v + steps
    tail = _stirling_tail(np.concatenate([_EXCESS_FROM + v, y]))
    lift = _reduce_rows(v * np.log1p(1.0 / _FROM_ONE) - np.log1p(v / _FROM_ONE), np.add)
    gamma = _excess(lift, _EXCESS_FROM, v, tail[:v.size], _TAIL_FROM)
    return np.stack([v, gamma, np.log(v), steps, y, tail[v.size:]])


def _betaln(own, at_a, at_b):
    """ln B(a, b) for a and b the values of ``own`` (``_own_parts``) at the
    indices ``at_a`` and ``at_b``, which broadcast together.

    A grid of few distinct arguments, as betaln(x[:, None], n), so forms
    only E(hi, lo) on the grid; the rest is read off the values.
    """
    return _blockwise(lambda at_a, at_b: _betaln_block(own, at_a, at_b), at_a, at_b)


def _betaln_block(own, at_a, at_b):
    v = own[0]
    shift = np.asarray(at_b - at_a)
    shift *= v[at_a] > v[at_b]   # lo is at at_a + shift, hi at at_b - shift
    lo, gamma, log_lo = own[:3, at_a + shift]
    hi, _, log_hi, steps, y, tail = own[:, at_b - shift]
    excess = _excess(_excess_lift(steps, hi, lo), y, lo, _stirling_tail(y + lo), tail)
    return (gamma - excess) - (log_lo + lo * log_hi)


_SERIES_FROM = 12.0   # log_half_ratio and its slope sum the asymptotic series from here on
# log_half_ratio's series, a polynomial in 1/x^2 times 1/x, and its slope's, times 1/x^2:
# for n = 2, 4, .., 16 their coefficients are (2^(1-n) - 2) B_n / n divided by n - 1,
# and negated
_HALF_RATIO = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
               -5461 / 425984, 929569 / 15728640)
_HALF_RATIO_SLOPE = (1 / 8, -1 / 64, 1 / 128, -17 / 2048, 31 / 2048, -7601 / 180224,
                     70993 / 425984, -929569 / 1048576)


def log_half_ratio(x):
    """ln Gamma(x + 1/2) - ln Gamma(x) - (1/2) ln x, to full relative precision.

    The value shrinks like -1/(8x).  Below _SERIES_FROM it is the excess
    E(x, 1/2); from there on its own asymptotic series is summed through
    1/x^15 (its truncation error there is below 1e-16 relative).
    """
    return float_if_scalar(_blockwise(_half_ratio, check_positive(x, "x")), x)


def _half_ratio(x):
    # each element takes the one branch it needs
    far = x >= _SERIES_FROM
    out = np.empty(x.shape)
    out[far] = _half_ratio_series(x[far])
    out[~far] = _log_gamma_excess(x[~far], 0.5)
    return out


def _half_ratio_series(x):
    out = _horner(1.0 / (x * x), _HALF_RATIO)
    out /= x
    return out


def _half_ratio_slope(x):
    # derivative of log_half_ratio's asymptotic series, for x >= _SERIES_FROM,
    # where its truncation stays below 4e-16 relative
    u = 1.0 / (x * x)
    out = _horner(u, _HALF_RATIO_SLOPE)
    out *= u
    return out


# --- digamma differences -------------------------------------------------
#
# delta_psi(z1, z2) = psi(z1) - psi(z2).  Posterior formulas evaluate this
# with z1 ~ z2 (e.g. N + K*alpha vs n_i + alpha for concentrated counts),
# where subtracting two digamma values loses most significant digits.  The
# kernel below raises both arguments in lockstep, accumulating the exact
# recurrence terms d/((z1+k)(z2+k)), then takes the asymptotic series of
# the *difference*, which is free of cancellation term by term.  An
# element already past _RAISE_TO takes no step; the series runs to its
# 1/z^10 term, so that even for nearby arguments its truncation stays
# near 2e-16 relative there.


def _delta_psi_kernel(big, small, gap):
    """psi(big) - psi(small) for big = small + gap, gap >= 0, elementwise."""
    steps = _steps(small)
    acc = _recurrence(steps, _psi_step, big, small, gap)
    a, b, d = big + steps, small + steps, gap
    # psi(z) ~ ln z - 1/(2z) - sum_k c_k z^-2k, and c_k (b^-2k - a^-2k) = c_k d (a + b)
    # u v h_(k-1), where u = 1/a^2, v = 1/b^2 and h_k = sum_i u^i v^(k-i).  Their sum
    # over k is sum_j v^j q_j with q_j = c_(j+1) + u q_(j+1), a Horner scheme in v whose
    # coefficients q_j come by Horner's scheme in u
    u, v = 1.0 / (a * a), 1.0 / (b * b)
    q = np.full(u.shape, _SERIES[-1])
    tail = q.copy()
    for c in reversed(_SERIES[:-1]):
        q *= u
        q += c
        tail *= v
        tail += q
    return acc + np.log1p(d / b) + d * (0.5 / (a * b) + (a + b) * (u * v) * tail)


def delta_psi(z1, z2):
    """psi(z1) - psi(z2), accurate even when z1 and z2 nearly coincide.

    Scalars and arrays (broadcast together) take the same route: the
    paired recurrence/asymptotic-difference kernel above.
    """
    out = _blockwise(_signed_delta_psi, check_positive(z1, "z1"), check_positive(z2, "z2"))
    return float_if_scalar(out, z1, z2)


def _signed_delta_psi(a1, a2):
    big = np.maximum(a1, a2)
    small = np.minimum(a1, a2)
    return np.sign(a1 - a2) * _delta_psi_kernel(big, small, big - small)
