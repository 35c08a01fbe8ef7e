"""Truth generators: Dirichlet/multinomial draws, Markov L-gram formulas."""

import math

import numpy as np
import pytest

from bayesdiv.synth import (
    _check_prob_vector,
    build_markov_spec,
    exact_crossentropy,
    exact_dkl,
    exact_entropy,
    exact_hellinger_sq,
    lgram_distribution,
    markov_crossentropy,
    markov_entropy,
    sample_dirichlet,
    sample_lgrams,
    sample_multinomial,
)

from _oracles import lgram_enumeration, uniform_chain


# --- exact divergences -------------------------------------------------------

def test_exact_dkl_identical_is_zero():
    q = np.array([0.2, 0.3, 0.5])
    assert exact_dkl(q, q) == pytest.approx(0.0, abs=1e-15)


def test_exact_dkl_hand_value():
    q = np.array([0.75, 0.25])
    t = np.array([0.25, 0.75])
    assert exact_dkl(q, t) == pytest.approx(0.5 * math.log(3), rel=1e-14, abs=0)


def test_exact_dkl_ignores_zero_q_terms():
    q = np.array([0.5, 0.5, 0.0])
    t = np.array([0.25, 0.25, 0.5])
    assert exact_dkl(q, t) == pytest.approx(math.log(2), rel=1e-14, abs=0)


def test_exact_dkl_rejects_support_violation():
    q = np.array([0.5, 0.5])
    t = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        exact_dkl(q, t)


def test_exact_dkl_decomposes_into_cross_minus_entropy():
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = rng.dirichlet(np.ones(6))
        t = rng.dirichlet(np.ones(6))
        want = exact_crossentropy(q, t) - exact_entropy(q)
        assert exact_dkl(q, t) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_exact_hellinger_bounds_and_symmetry():
    rng = np.random.default_rng(13)
    q = rng.dirichlet(np.ones(5))
    t = rng.dirichlet(np.ones(5))
    h = exact_hellinger_sq(q, t)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(exact_hellinger_sq(t, q), rel=1e-14, abs=0)
    assert exact_hellinger_sq(q, q) == pytest.approx(0.0, abs=1e-14)


def test_exact_hellinger_of_a_vector_with_itself_is_not_negative():
    # sum sqrt(q q) rounds an ulp past 1 for some vectors (K=52 at seed 1)
    for seed in range(40):
        q = sample_dirichlet(2 + 50 * seed, 1.0, seed)
        assert 0.0 <= exact_hellinger_sq(q, q) <= 1e-15, seed


def test_exact_hellinger_disjoint_supports():
    q = np.array([1.0, 0.0])
    t = np.array([0.0, 1.0])
    assert exact_hellinger_sq(q, t) == pytest.approx(1.0, abs=1e-15)


def test_exact_hellinger_equals_half_squared_root_distance():
    rng = np.random.default_rng(14)
    for _ in range(10):
        q = rng.dirichlet(np.ones(8))
        t = rng.dirichlet(np.ones(8))
        want = 0.5 * np.sum((np.sqrt(q) - np.sqrt(t)) ** 2)
        assert exact_hellinger_sq(q, t) == pytest.approx(want, rel=1e-12, abs=0)


# --- samplers ------------------------------------------------------------------

def test_sample_dirichlet_simplex_and_determinism():
    a = sample_dirichlet(10, 0.5, 77)
    b = sample_dirichlet(10, 0.5, 77)
    assert np.array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(a > 0)


def test_sample_dirichlet_component_means():
    rng = np.random.default_rng(15)
    K = 5
    draws = np.stack([sample_dirichlet(K, 2.0, rng) for _ in range(4000)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - 1.0 / K) < 5 * se)


def test_sample_dirichlet_entropy_concentrates_near_prior_mean():
    from bayesdiv.posterior import prior_mean_entropy

    rng = np.random.default_rng(16)
    ent = [exact_entropy(sample_dirichlet(400, 1.0, rng)) for _ in range(30)]
    assert np.mean(ent) == pytest.approx(prior_mean_entropy(1.0, 400), abs=0.02)


def test_sample_dirichlet_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_dirichlet(1, 1.0, 0)
    with pytest.raises(ValueError):
        sample_dirichlet(5, 0.0, 0)


def test_sample_multinomial_totals_and_edge_cases():
    p = np.array([0.1, 0.6, 0.3])
    counts = sample_multinomial(p, 500, 3)
    assert counts.sum() == 500 and np.all(counts >= 0)
    assert np.array_equal(sample_multinomial(p, 0, 3), np.zeros(3, dtype=np.int64))
    degenerate = sample_multinomial(np.array([1.0, 0.0]), 25, 3)
    assert degenerate[0] == 25 and degenerate[1] == 0


def test_sample_multinomial_frequencies_converge():
    p = np.array([0.05, 0.2, 0.3, 0.45])
    counts = sample_multinomial(p, 1_000_000, 8)
    freq = counts / counts.sum()
    se = np.sqrt(p * (1 - p) / 1_000_000)
    assert np.all(np.abs(freq - p) < 5 * se)


def test_sample_multinomial_rejects_non_simplex():
    with pytest.raises(ValueError):
        sample_multinomial(np.array([0.5, 0.6]), 10, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: _check_prob_vector([[0.5, 0.5]], "q"), "q must be a 1-d probability vector"),
    (lambda: _check_prob_vector([1.5, -0.5], "q"), "q must be non-negative and finite"),
    (lambda: _check_prob_vector([0.5, math.nan], "q"), "q must be non-negative and finite"),
    (lambda: sample_multinomial([0.5, 0.5], -1), "size must be a non-negative integer"),
    (lambda: sample_multinomial([0.5, 0.5], 2.5), "size must be a non-negative integer"),
    (lambda: exact_dkl([0.5, 0.5], [0.25] * 4), "q and t must have equal length"),
    (lambda: exact_hellinger_sq([0.5, 0.5], [0.25] * 4), "q and t must have equal length"),
], ids=["2d", "negative", "nan", "size_negative", "size_fraction", "dkl_lengths",
        "hellinger_lengths"])
def test_bad_inputs_raise_with_their_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# --- Markov chains ----------------------------------------------------------------

def test_markov_spec_invariants():
    spec = build_markov_spec(20, 3, 5)
    assert spec.W.shape == (20, 20)
    np.testing.assert_allclose(spec.W.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(spec.W > 0)
    assert spec.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(spec.W @ spec.pi - spec.pi, 1) <= 1e-10
    assert lgram_distribution(spec).shape == (20**3,)


def test_markov_spec_deterministic():
    a = build_markov_spec(6, 2, 42)
    b = build_markov_spec(6, 2, 42)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.pi, b.pi)


def test_uniform_chain_stationary_and_entropy():
    # the linear solve finds the stationary distribution of a random chain;
    # the uniform chain's L-gram entropy is exactly L ln S
    spec = build_markov_spec(20, 3, 0)
    np.testing.assert_allclose(spec.W @ spec.pi, spec.pi, atol=1e-13)
    assert markov_entropy(uniform_chain(20, 3)) == pytest.approx(3 * math.log(20), rel=1e-13, abs=0)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_markov_formulas_match_enumeration(L):
    spec_q = build_markov_spec(4, L, 21)
    spec_t = build_markov_spec(4, L, 22)
    q = lgram_enumeration(spec_q)
    t = lgram_enumeration(spec_t)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert markov_entropy(spec_q) == pytest.approx(exact_entropy(q), abs=1e-12)
    assert markov_crossentropy(spec_q, spec_t) == pytest.approx(
        exact_crossentropy(q, t), abs=1e-12
    )


def test_lgram_distribution_matches_enumeration():
    spec = build_markov_spec(4, 3, 23)
    np.testing.assert_allclose(
        lgram_distribution(spec), lgram_enumeration(spec), rtol=1e-12, atol=1e-15
    )


def test_markov_crossentropy_dominates_entropy():
    spec_q = build_markov_spec(7, 2, 31)
    spec_t = build_markov_spec(7, 2, 32)
    assert markov_crossentropy(spec_q, spec_t) >= markov_entropy(spec_q)
    assert markov_crossentropy(spec_q, spec_q) == pytest.approx(
        markov_entropy(spec_q), rel=1e-13, abs=0
    )


def test_markov_crossentropy_shape_mismatch():
    with pytest.raises(ValueError):
        markov_crossentropy(build_markov_spec(4, 2, 1), build_markov_spec(5, 2, 1))
    with pytest.raises(ValueError):
        markov_crossentropy(build_markov_spec(4, 2, 1), build_markov_spec(4, 3, 1))


def test_sample_lgrams_histogram_and_determinism():
    spec = build_markov_spec(4, 2, 9)
    counts = sample_lgrams(spec, 10_000, 55)
    assert counts.shape == (16,)
    assert counts.sum() == 10_000
    assert np.array_equal(counts, sample_lgrams(spec, 10_000, 55))
    assert np.array_equal(sample_lgrams(spec, 0, 55), np.zeros(16, dtype=np.int64))


def test_sample_lgrams_frequencies_match_distribution():
    # lgram_distribution is the law sample_lgrams draws from, so the
    # frequencies are checked against the explicit products instead
    spec = build_markov_spec(4, 2, 10)
    q = lgram_enumeration(spec)
    counts = sample_lgrams(spec, 1_000_000, 60)
    freq = counts / counts.sum()
    se = np.sqrt(q * (1 - q) / 1_000_000)
    assert np.all(np.abs(freq - q) < 5 * se)


def test_uniform_chain_lgrams_equifrequent():
    spec = uniform_chain(5, 2)
    counts = sample_lgrams(spec, 500_000, 61)
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 25) < 5 * math.sqrt((1 / 25) * (24 / 25) / 500_000))
