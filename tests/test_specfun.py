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


def test_delta_psi_broadcasts():
    z1 = np.array([2.0, 3.0, 4.0])
    out = delta_psi(z1, 1.0)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(1 + 1 / 2 + 1 / 3, abs=1e-13)


def test_delta_psi_rejects_nonpositive():
    with pytest.raises(ValueError):
        delta_psi(0.0, 1.0)
    with pytest.raises(ValueError):
        delta_psi(1.0, -2.0)
