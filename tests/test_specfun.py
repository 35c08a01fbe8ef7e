"""Special-function layer: values against mpmath, identities, domains."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from bayesdiv.specfun import delta_psi, trigamma

mpmath.mp.dps = 40


# --- trigamma against mpmath -------------------------------------------------

@pytest.mark.parametrize("z", [1e-6, 0.037, 0.5, 1.0, 2.0, 17.25, 400.0, 1e6])
def test_trigamma_matches_mpmath(z):
    truth = float(mpmath.polygamma(1, z))
    assert trigamma(z) == pytest.approx(truth, rel=1e-12, abs=0)


def test_wrappers_accept_arrays():
    z = np.array([0.5, 1.0, 2.0])
    assert trigamma(z).shape == (3,)


@pytest.mark.parametrize("fn", [trigamma])
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
