"""Divergence between bigram distributions of two Markov chains.

Builds two random chains over the same alphabet, computes their exact
bigram KL divergence from the closed forms (stationary entropy and
cross-entropy), then recovers it from finite samples of bigrams drawn
along the chains.
"""

import numpy as np

from bayesdiv import (
    build_markov_spec,
    build_table,
    estimate_dkl_dpm,
    estimate_dkl_plugin,
    exact_dkl,
    lgram_distribution,
    markov_crossentropy,
    markov_entropy,
    sample_lgrams,
)

STATES = 20
L = 2
K = STATES**L

rng = np.random.default_rng(12)
spec_q = build_markov_spec(STATES, L, rng)
spec_t = build_markov_spec(STATES, L, rng)

truth = markov_crossentropy(spec_q, spec_t) - markov_entropy(spec_q)
flat = exact_dkl(lgram_distribution(spec_q), lgram_distribution(spec_t))
print(f"{STATES} states, bigrams: K = {K} categories")
print(f"closed-form divergence {truth:.4f} nats "
      f"(flat enumeration check: {flat:.4f})\n")

print(f"{'N':>7} {'dpm':>8} {'+-':>7} {'jeffreys':>9}")
for size in (400, 2000, 10000):
    n = sample_lgrams(spec_q, size, rng)
    m = sample_lgrams(spec_t, size, rng)
    table = build_table(n, m, K)
    report = estimate_dkl_dpm(table)
    plug = estimate_dkl_plugin(table, "jeffreys")
    print(f"{size:>7} {report.value:8.4f} {report.posterior_std:7.4f} {plug:9.4f}")

print("\nThe mixture's error bar shrinks with N, and each estimate lies")
print("within a few bars of the truth; the smoothed plugin carries a bias")
print("of its own with no uncertainty attached.")
