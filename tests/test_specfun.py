"""Special-function layer: values against mpmath, identities, domains."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from bayesdiv.specfun import betaln, delta_psi, log_half_ratio, stacked, trigamma

mpmath.mp.dps = 40


# --- trigamma against mpmath -------------------------------------------------

@pytest.mark.parametrize("z", [1e-6, 0.037, 0.5, 1.0, 2.0, 17.25, 400.0, 1e6])
def test_trigamma_matches_mpmath(z):
    truth = float(mpmath.polygamma(1, z))
    assert trigamma(z) == pytest.approx(truth, rel=1e-12, abs=0)


def test_trigamma_matches_mpmath_from_1e_minus_6_to_1e12():
    # 400 log-spaced points, each within 2e-15 relative of the 50-digit value
    z = np.geomspace(1e-6, 1e12, 400)
    with mpmath.workdps(50):
        worst = max(float(abs(got / mpmath.polygamma(1, mpmath.mpf(x)) - 1))
                    for x, got in zip(z.tolist(), trigamma(z).tolist()))
    assert worst <= 2e-15


def test_wrappers_accept_arrays():
    z = np.array([0.5, 1.0, 2.0])
    assert trigamma(z).shape == (3,)


@pytest.mark.parametrize("fn", [trigamma, lambda x: betaln(x, 1.0), lambda x: betaln(1.0, x)],
                         ids=["trigamma", "betaln[a]", "betaln[b]"])
def test_wrappers_reject_nonpositive(fn):
    with pytest.raises(ValueError):
        fn(0.0)
    with pytest.raises(ValueError):
        fn(-1.5)


# --- derivative ladder -------------------------------------------------------

def test_trigamma_is_digamma_derivative():
    h = 1e-6
    for z in (0.3, 1.0, 7.5, 120.0):
        fd = (digamma(z + h) - digamma(z - h)) / (2 * h)
        assert fd == pytest.approx(trigamma(z), rel=1e-6, abs=0)


# --- digamma differences ------------------------------------------------------

def test_delta_psi_same_argument_is_zero():
    for x in (1e-5, 0.7, 3.0, 1e5):
        assert delta_psi(x, x) == 0.0


def test_delta_psi_telescoping_example():
    # integer gap reduces to a harmonic tail: psi(4) - psi(2) = 1/2 + 1/3
    assert delta_psi(4.0, 2.0) == pytest.approx(1 / 2 + 1 / 3, abs=1e-14)


def test_delta_psi_unit_recurrence():
    for z in (0.2, 1.0, 11.0, 4000.0):
        assert delta_psi(z + 1.0, z) == pytest.approx(1.0 / z, rel=1e-13, abs=0)


def test_delta_psi_small_integer_example():
    assert delta_psi(2.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_delta_psi_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = np.exp(rng.uniform(-6, 6, size=2))
        assert delta_psi(a, b) == pytest.approx(-delta_psi(b, a), rel=1e-13, abs=1e-16)


def test_delta_psi_integer_gap_matches_harmonic_sum():
    z = 2.75
    gap = 137
    harmonic = math.fsum(1.0 / (z + k) for k in range(gap))
    assert delta_psi(z + gap, z) == pytest.approx(harmonic, rel=1e-13, abs=0)


def test_delta_psi_against_mpmath_worst_cases():
    # mixes tiny bases, huge gaps, and near-equal arguments
    pairs = [
        (1e-6 + 40000.0, 1e-6),
        (1.5e-4, 1e-6),
        (400.0004, 400.0001),
        (2e7, 3.2),
        (0.5001, 0.5),
        (123456.789, 123456.0),
        (41.0, 0.003),
    ]
    for z1, z2 in pairs:
        truth = float(mpmath.digamma(z1) - mpmath.digamma(z2))
        got = delta_psi(z1, z2)
        assert got == pytest.approx(truth, rel=2e-13, abs=1e-15), (z1, z2)


def test_delta_psi_integer_gaps_match_mpmath():
    # count differences: integer gaps up to 1e4 above bases from 1e-6 to 3e4,
    # with scalar and array calls taking the same route
    worst = 0.0
    for gap in (1, 2, 7, 100, 1000, 10_000):
        for small in np.geomspace(1e-6, 3e4, 25):
            small = float(small)
            big = small + gap
            truth = float(mpmath.digamma(big) - mpmath.digamma(small))
            got = delta_psi(big, small)
            assert got == delta_psi(np.array([big]), np.array([small]))[0]
            worst = max(worst, abs(got - truth) / truth)
    assert worst <= 2e-14


def test_delta_psi_matches_mpmath_over_bases_and_gaps():
    # bases from 1e-7 to 1e7, gaps from 1e-12 to 1e7 and small integers,
    # in one batch call; a gap lost to rounding leaves no difference to test
    gaps = np.concatenate([np.geomspace(1e-12, 1e7, 39), np.arange(1.0, 6.0)])
    small, gap = (g.ravel() for g in np.meshgrid(np.geomspace(1e-7, 1e7, 29), gaps))
    big = small + gap
    keep = big > small
    got = delta_psi(big[keep], small[keep])
    worst = 0.0
    for value, z1, z2 in zip(got.tolist(), big[keep].tolist(), small[keep].tolist()):
        truth = mpmath.digamma(mpmath.mpf(z1)) - mpmath.digamma(mpmath.mpf(z2))
        worst = max(worst, float(abs((value - truth) / truth)))
    assert worst <= 2e-15


def test_delta_psi_of_a_batch_element_is_that_element_alone():
    # each element takes its own recurrence steps, so an element's value
    # does not depend on the batch: bases from 1e-6 to 1e6, in either
    # argument order, give the bits of the scalar call
    small = np.geomspace(1e-6, 1e6, 25)
    gaps = np.array([0.0, 1e-9, 0.5, 3.0, 17.5, 1e4])
    z2 = np.repeat(small, len(gaps)).reshape(-1, len(gaps))
    z1 = z2 + gaps
    for a1, a2 in ((z1, z2), (z2, z1)):
        batch = delta_psi(a1, a2)
        for x, y, got in zip(a1.ravel().tolist(), a2.ravel().tolist(), batch.ravel().tolist()):
            assert got == delta_psi(x, y), (x, y)


@pytest.mark.parametrize("small", [18.0, 18.5, 21.0, 30.0, 64.0])
def test_delta_psi_keeps_its_digits_where_no_recurrence_step_is_taken(small):
    # from a base of 18 on, the asymptotic series alone gives the value;
    # with nearby arguments its truncation would show first
    worst = 0.0
    for gap in (1e-6, 1e-3, 0.5, 2.0, 40.0):
        truth = float(mpmath.digamma(mpmath.mpf(small + gap)) - mpmath.digamma(small))
        worst = max(worst, abs(delta_psi(small + gap, small) - truth) / truth)
    assert worst <= 1e-15


def test_delta_psi_broadcasts():
    z1 = np.array([2.0, 3.0, 4.0])
    out = delta_psi(z1, 1.0)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(1 + 1 / 2 + 1 / 3, abs=1e-13)
    # (A,1) x (1,B) and scalar x array give the values of the broadcast arguments
    rng = np.random.default_rng(5)
    col, row = np.exp(rng.normal(0, 4, (7, 1))), np.exp(rng.normal(0, 4, (1, 5)))
    row[0, 0] = col[3, 0] * (1 + 1e-9)   # one nearly coinciding pair
    for x, y in ((col, row), (row, col), (2.5, row), (col, 40.0)):
        bx, by = np.broadcast_arrays(x, y)
        assert np.array_equal(delta_psi(x, y), delta_psi(bx, by))


def test_delta_psi_rejects_nonpositive():
    with pytest.raises(ValueError):
        delta_psi(0.0, 1.0)
    with pytest.raises(ValueError):
        delta_psi(1.0, -2.0)


# --- log Gamma differences ------------------------------------------------------

def _log_beta(x, n):
    return mpmath.loggamma(x) + mpmath.loggamma(n) - mpmath.loggamma(x + n)


def test_betaln_matches_mpmath_over_eighteen_decades():
    # x from 1e-6 to 1e13 against counts and half counts from 1/2 to 1e12,
    # in either argument order, within 1e-13 of max(1, |value|)
    n = np.array([0.5, 1, 2, 3, 7, 10, 17, 18, 19, 100, 1e3, 1e6, 1e9, 1e12])
    x, n = (v.ravel() for v in np.meshgrid(np.geomspace(1e-6, 1e13, 61), n))
    worst = 0.0
    with mpmath.workdps(50):
        for a, b, got, swapped in zip(x.tolist(), n.tolist(), betaln(x, n).tolist(),
                                      betaln(n, x).tolist()):
            truth = _log_beta(mpmath.mpf(a), mpmath.mpf(b))
            assert got == swapped, (a, b)
            worst = max(worst, float(abs(got - truth) / max(1, abs(truth))))
    assert worst <= 1e-13


@pytest.mark.parametrize("x, n", [(1e4, 1), (6.3e5, 1), (7.9e6, 10), (1e9, 1000)])
def test_betaln_keeps_its_digits_where_a_large_argument_meets_a_small_one(x, n):
    # a large first argument and a small second: the total's ln B(K alpha, N)
    # and a level's ln B(alpha, n) at large alpha.  Summed as ln Gamma values,
    # such a value is off by thousands of ulps; here by a few at most
    with mpmath.workdps(50):
        truth = _log_beta(mpmath.mpf(x), mpmath.mpf(n))
    got = betaln(x, n)
    assert abs(got - float(truth)) <= 4 * math.ulp(got), (got, float(truth))


def test_betaln_broadcasts():
    # (A,1) x (1,B), and a scalar against an array, give the values of the
    # broadcast arguments, though each argument's own parts are formed once
    rng = np.random.default_rng(7)
    col, row = np.exp(rng.normal(0, 6, (7, 1))), np.exp(rng.normal(0, 6, (1, 5)))
    for x, y in ((col, row), (row, col), (3.0, row), (col, 0.5)):
        bx, by = np.broadcast_arrays(x, y)
        assert np.array_equal(betaln(x, y), betaln(bx, by))


def test_betaln_of_one_count_is_minus_log_x_to_two_ulps():
    # ln B(x, 1) = -ln x: the evidence of a one-count sample at alpha = 1
    # is -ln K, as ln Gamma(1) comes out within an ulp of 0
    for x in (2.0, 3.0, 7.5, 10.0, 17.5, 400.0, 1e4, 6.3e5, 1e9, 1e13):
        got = betaln(x, 1.0)
        with mpmath.workdps(50):
            truth = float(-mpmath.log(mpmath.mpf(x)))
        assert abs(got - truth) <= 2 * math.ulp(truth), (x, got, truth)


def test_log_half_ratio_matches_mpmath_below_30():
    # a log Gamma excess, summed without differencing log Gamma values, and
    # from 12 on the asymptotic series; relative error 1e-13 at most down to 1e-6
    x = np.concatenate([np.geomspace(1e-6, 29.9, 300), [0.5, 1.0, 2.0, 7.5, 8.0, 11.9, 12.0, 29.5]])
    worst = 0.0
    with mpmath.workdps(50):
        for v, got in zip(x.tolist(), log_half_ratio(x).tolist()):
            v = mpmath.mpf(v)
            truth = mpmath.loggamma(v + 0.5) - mpmath.loggamma(v) - mpmath.log(v) / 2
            worst = max(worst, float(abs(got / truth - 1)))
    assert worst <= 1e-13


@pytest.mark.parametrize("kernel", ["trigamma", "betaln", "log_half_ratio"])
def test_a_batch_element_is_that_element_alone(kernel):
    # every element takes its own recurrence steps: a batch from 1e-6 to
    # 1e6, with a second argument from 1/2 to 1e4 for betaln, gives the bits
    # of each scalar call
    x = np.geomspace(1e-6, 1e6, 37)
    second = np.resize([0.5, 1.0, 3.0, 17.5, 1e4], x.shape)
    call = {"trigamma": lambda v, _: trigamma(v), "betaln": betaln,
            "log_half_ratio": lambda v, _: log_half_ratio(v)}[kernel]
    batch = call(x, second)
    for v, w, got in zip(x.tolist(), second.tolist(), batch.tolist()):
        assert got == call(v, w), (v, w)


@pytest.mark.parametrize("regime", ["every_element_steps", "no_element_steps"])
@pytest.mark.parametrize("kernel", ["trigamma", "delta_psi", "betaln", "log_half_ratio"])
def test_a_batch_on_one_side_of_the_recurrence_is_each_element_alone(kernel, regime):
    # a batch whose elements all take recurrence steps (all below 8), or
    # none do (all from 18 on, past log_half_ratio's series threshold too),
    # takes the masked path that a mixed batch takes, with the same bits
    lo, hi = (1e-6, 7.9) if regime == "every_element_steps" else (18.0, 1e6)
    x = np.geomspace(lo, hi, 29)
    second = np.resize([lo, hi, math.sqrt(lo * hi), x[3], x[17]], x.shape)
    call = {"trigamma": lambda v, _: trigamma(v), "delta_psi": delta_psi, "betaln": betaln,
            "log_half_ratio": lambda v, _: log_half_ratio(v)}[kernel]
    batch = call(x, second)
    for v, w, got in zip(x.tolist(), second.tolist(), batch.tolist()):
        assert got == call(v, w), (v, w)


def test_stacked_gives_each_group_the_bits_of_its_own_call():
    # groups of different shapes, one of them with a broadcast_to view as
    # kl_moment_grids passes, come back each in its shape, bit for bit
    rng = np.random.default_rng(8)
    col = np.exp(rng.normal(0, 4, (6, 1)))
    levels = np.exp(rng.normal(0, 4, (6, 4)))
    flat = np.exp(rng.normal(0, 4, 11))
    groups = [(levels, np.broadcast_to(col, levels.shape)),
              (flat, flat[::-1].copy()),
              (np.broadcast_to(col + 2.0, levels.shape), levels)]
    for group, got in zip(groups, stacked(delta_psi, *groups)):
        assert got.shape == group[0].shape
        assert np.array_equal(got, delta_psi(*group))
