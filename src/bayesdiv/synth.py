"""Synthetic ground truth: Dirichlet draws, Markov L-grams, exact values.

Everything takes either an integer seed or a numpy Generator, so callers
can hand out independent per-repetition streams derived from one master
seed.
"""

from dataclasses import dataclass

import numpy as np

from .posterior import check_K
from .specfun import check_positive

__all__ = [
    "sample_dirichlet",
    "sample_multinomial",
    "exact_entropy",
    "exact_crossentropy",
    "exact_dkl",
    "exact_hellinger_sq",
    "MarkovChainSpec",
    "check_markov_shape",
    "build_markov_spec",
    "markov_entropy",
    "markov_crossentropy",
    "lgram_distribution",
    "sample_lgrams",
]


def sample_dirichlet(K, alpha, seed=None):
    """One draw from the symmetric Dirichlet(alpha) over K categories.

    Built from K unit-scale Gamma(alpha) draws, normalized.  Components
    that underflow to exactly 0.0 (possible for alpha well below 1) would
    break the support requirements of exact divergences, so such draws
    are rejected and redrawn.
    """
    check_K(K)
    check_positive(alpha, "alpha")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        draws = rng.standard_gamma(float(alpha), size=int(K))
        if np.all(draws > 0.0):
            return draws / draws.sum()
    raise ValueError(f"Gamma({alpha}) draws keep underflowing to zero")


def _check_prob_vector(p, name, atol=1e-8):
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a 1-d probability vector")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be non-negative and finite")
    if not np.isclose(arr.sum(), 1.0, rtol=0, atol=atol):
        raise ValueError(f"{name} must sum to one")
    return arr


def sample_multinomial(probs, size, seed=None):
    """Multinomial counts over the categories of ``probs``; total = size."""
    p = _check_prob_vector(probs, "probs", atol=1e-9)
    if not (isinstance(size, (int, np.integer)) and size >= 0):
        raise ValueError("size must be a non-negative integer")
    rng = np.random.default_rng(seed)
    return rng.multinomial(int(size), p / p.sum())


# --- exact functionals ----------------------------------------------------

def _check_pair(q, t):
    qv, tv = _check_prob_vector(q, "q"), _check_prob_vector(t, "t")
    if qv.shape != tv.shape:
        raise ValueError("q and t must have equal length")
    return qv, tv


def exact_entropy(q):
    """S(q) = -sum q ln q, with 0 ln 0 = 0."""
    qv = _check_prob_vector(q, "q")
    nz = qv > 0
    return float(-np.dot(qv[nz], np.log(qv[nz])))


def exact_crossentropy(q, t):
    """H(q||t) = -sum q ln t; requires t > 0 wherever q > 0."""
    qv, tv = _check_pair(q, t)
    nz = qv > 0
    if np.any(tv[nz] <= 0):
        raise ValueError("t must be positive wherever q is positive")
    return float(-np.dot(qv[nz], np.log(tv[nz])))


def exact_dkl(q, t):
    """D_KL(q||t) in nats."""
    return exact_crossentropy(q, t) - exact_entropy(q)


def exact_hellinger_sq(q, t):
    """DH^2(q,t) = 1 - sum sqrt(q t), in [0, 1]."""
    qv, tv = _check_pair(q, t)
    return float(1.0 - np.sqrt(qv * tv).sum())


# --- Markov L-grams -------------------------------------------------------

@dataclass(frozen=True)
class MarkovChainSpec:
    """Stationary Markov chain over S states emitting length-L grams.

    ``W[next, prev]`` is the transition probability, so columns sum to
    one; ``pi`` is the stationary distribution W pi = pi.
    """

    W: np.ndarray
    pi: np.ndarray
    L: int

    @property
    def S(self):
        return len(self.pi)


def check_markov_shape(S, L):
    """Raise ValueError unless S is an integer >= 2 and L an integer >= 1."""
    if not (isinstance(S, (int, np.integer)) and S >= 2):
        raise ValueError("states S must be an integer >= 2")
    if not (isinstance(L, (int, np.integer)) and L >= 1):
        raise ValueError("gram_length L must be an integer >= 1")


def build_markov_spec(S, L, seed=None):
    """Random column-stochastic chain.

    Transition columns are drawn i.i.d. uniform and normalized.  The
    stationary distribution solves (W - I) pi = 0 with sum(pi) = 1: the
    rows of W - I sum to zero, so one of them is replaced by ones.
    """
    check_markov_shape(S, L)
    rng = np.random.default_rng(seed)
    W = rng.uniform(size=(int(S), int(S)))
    W /= W.sum(axis=0, keepdims=True)
    system = W - np.eye(int(S))
    system[0] = 1.0
    pi = np.linalg.solve(system, np.eye(int(S))[0])
    W.setflags(write=False)
    pi.setflags(write=False)
    return MarkovChainSpec(W=W, pi=pi, L=int(L))


def markov_entropy(spec):
    """Exact entropy of the L-gram distribution of a stationary chain.

    S(pi) plus (L-1) times the conditional next-state entropy.
    """
    W, pi, L = spec.W, spec.pi, spec.L
    step = -np.dot(W * np.log(W), pi).sum() if L > 1 else 0.0
    return exact_entropy(pi) + (L - 1) * step


def markov_crossentropy(spec_q, spec_t):
    """Exact cross-entropy between the L-gram distributions of two chains.

    Requires equal S and L.  H(pi||sigma) plus (L-1) conditional terms
    weighted by the first chain's stationary flow.
    """
    if spec_q.S != spec_t.S or spec_q.L != spec_t.L:
        raise ValueError("chains must share S and L")
    W, pi, L = spec_q.W, spec_q.pi, spec_q.L
    V = spec_t.W
    step = -np.dot(W * np.log(V), pi).sum() if L > 1 else 0.0
    return exact_crossentropy(pi, spec_t.pi) + (L - 1) * step


def lgram_distribution(spec):
    """Exact probability vector over all S^L grams.

    Gram (x_1, ..., x_L) maps to category x_1 + x_2 S + ... + x_L S^(L-1).
    """
    W, pi, L = spec.W, spec.pi, spec.L
    q = pi.copy()
    for _ in range(L - 1):
        # q[..., x_prev] -> q[..., x_prev, x_next] = q * W[x_next, x_prev]
        q = q[..., :, None] * W.T
    return q.flatten(order="F")


def sample_lgrams(spec, size, seed=None):
    """Histogram of ``size`` independent L-grams walked from the chain.

    Each gram starts at x_1 ~ pi and steps through W, so the histogram is
    multinomial over lgram_distribution(spec), and is drawn as such.
    """
    return sample_multinomial(lgram_distribution(spec), size, seed)
