"""Convergence benchmark harness.

Draws synthetic sample pairs of increasing size from a known truth
(Dirichlet vectors or Markov-chain L-gram distributions), runs a set of
estimators on every (size, repetition) cell, and writes tidy CSV.  The
N* statistic scores convergence: the smallest ladder size at which an
estimator's mean enters a +-5% relative band around the truth and stays
inside it for every larger size.

Everything is deterministic for a fixed master seed: repetitions get
independent child seeds, rows are sorted before writing, and worker
pools only change where the work runs, not its result.  Each pool
worker runs its BLAS on one thread, so that workers x BLAS threads do
not oversubscribe the cores.

A process keeps one worker pool, forked by its first run with workers > 1
and reused by every later run with the same worker count, so the cells
of an N* grid pay for the fork once.  A run with another count replaces
the pool, a broken pool is dropped, and interpreter exit joins the
workers.  Workers see the package as it was when they were forked.
"""

import csv
import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import estimators as est
from . import synth
from .counts import build_table
from .estimators import ESTIMATOR_NAMES
from .posterior import check_K
from .specfun import check_positive

__all__ = [
    "ESTIMATOR_NAMES",
    "ExperimentConfig",
    "Row",
    "run_convergence",
    "write_rows_csv",
    "compute_nstar",
    "run_nstar",
    "write_nstar_csv",
]

DEFAULT_LADDER = (25, 50, 100, 200, 400, 1000, 4000, 10000, 40000)

_NSTAR_BAND = 0.05   # relative band around the truth that N* must stay in


class Row(NamedTuple):
    estimator: str
    N: int
    rep: int
    estimate: float
    true_value: float
    posterior_std: float | None


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark run description; validated on construction."""

    generator: str = "dirichlet"
    K: int = 400
    states: int = 20
    gram_length: int = 2
    alpha_true: float = 1.0
    beta_true: float = 1.0
    size_ladder: tuple = DEFAULT_LADDER
    repetitions: int = 10
    estimators: tuple = ESTIMATOR_NAMES
    divergence: str = "kl"
    master_seed: int = 0
    nested_subsample: bool = False
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "size_ladder", tuple(int(n) for n in self.size_ladder))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.generator not in ("dirichlet", "markov"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "dirichlet":
            check_K(self.K)
            check_positive(self.alpha_true, "alpha_true")
            check_positive(self.beta_true, "beta_true")
        else:
            synth.check_markov_shape(self.states, self.gram_length)
        if not self.size_ladder:
            raise ValueError("size_ladder is empty")
        if any(n < 1 for n in self.size_ladder):
            raise ValueError("ladder sizes must be positive")
        if any(b <= a for a, b in zip(self.size_ladder, self.size_ladder[1:])):
            raise ValueError("size_ladder must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.estimators:
            raise ValueError("no estimators selected")
        for name in self.estimators:
            est.check_estimator(name, self.divergence)
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("duplicate estimator in estimators")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @property
    def category_count(self):
        if self.generator == "markov":
            return int(self.states**self.gram_length)
        return int(self.K)


def _rep_rows(config, chain_laws, rep, rep_seed):
    """All rows of one repetition: one sample pair per ladder size.

    The truth (q, t) is the chains' L-gram laws or a fresh Dirichlet pair.
    """
    K = config.category_count
    part = rep_seed.spawn(3)
    if chain_laws is None:
        q = synth.sample_dirichlet(K, config.alpha_true, np.random.default_rng(part[0]))
        t = synth.sample_dirichlet(K, config.beta_true, np.random.default_rng(part[1]))
    else:
        q, t = chain_laws
    exact = synth.exact_dkl if config.divergence == "kl" else synth.exact_hellinger_sq
    truth = exact(q, t)
    draw = np.random.default_rng(part[2])

    def fresh_pair(size):
        return synth.sample_multinomial(q, size, draw), synth.sample_multinomial(t, size, draw)

    if config.nested_subsample:
        parent_n, parent_m = fresh_pair(config.size_ladder[-1])   # the ladder increases

        def sample_pair(size):
            if size == config.size_ladder[-1]:
                return parent_n, parent_m
            return (draw.multivariate_hypergeometric(parent_n, size),
                    draw.multivariate_hypergeometric(parent_m, size))

    else:
        sample_pair = fresh_pair

    rows = []
    for size in config.size_ladder:
        n, m = sample_pair(size)
        table = build_table(n, m, K)
        for name in config.estimators:
            report = est.estimate(table, name, config.divergence)
            rows.append(Row(name, int(size), int(rep), float(report.value),
                            float(truth), report.posterior_std))
    return rows


def _openblas_libraries():
    """Every OpenBLAS copy mapped into this process, as ctypes handles.

    numpy ships one (``numpy.libs``); scipy ships another (``scipy.libs``),
    mapped only where a caller imported scipy, as bayesdiv itself does not.
    They are found through /proc/self/maps; where that file does not
    exist, the list is empty.
    """
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5].strip())
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


def _openblas_function(lib, verb):
    """``<prefix>openblas_<verb>_num_threads<suffix>`` of one copy, or None.

    Wheels rename the exports: numpy's copy carries a ``scipy_`` prefix
    and a ``64_`` suffix for its 64-bit integer interface.
    """
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _single_blas_thread():
    """Pool initializer: run every OpenBLAS copy in this worker on one thread."""
    for lib in _openblas_libraries():
        fn = _openblas_function(lib, "set")
        if fn is not None:
            fn(1)


def _pool(workers):
    return ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread)


_shared = None   # (workers, pool) of this process, or None before the first run


def _shared_pool(workers):
    """This process's pool of `workers` workers; replaces one of another size."""
    global _shared
    if _shared is not None and _shared[0] != workers:
        _drop_pool()
    if _shared is None:
        _shared = (workers, _pool(workers))
    return _shared[1]


def _drop_pool():
    """Shut the shared pool down and forget it; the next run forks afresh."""
    global _shared
    if _shared is not None:
        pool, _shared = _shared[1], None
        pool.shutdown(wait=True)


def run_convergence(config):
    """Run the full ladder x repetition grid; returns sorted rows."""
    root = np.random.SeedSequence(config.master_seed)
    chain_seeds = root.spawn(2)
    rep_seeds = root.spawn(config.repetitions)
    chain_laws = None
    if config.generator == "markov":
        chain_laws = [
            synth.lgram_distribution(synth.build_markov_spec(
                config.states, config.gram_length, np.random.default_rng(seed)))
            for seed in chain_seeds
        ]
    tasks = [(config, chain_laws, rep, seed) for rep, seed in enumerate(rep_seeds)]
    if config.workers > 1:
        try:
            chunks = list(_shared_pool(config.workers).map(_rep_rows, *zip(*tasks)))
        except BrokenProcessPool:
            _drop_pool()
            raise
        # each unpickled row holds its own copy of its size and truth; a chunk
        # is one repetition, with one truth, so the rows can share both, as
        # rows made in this process do, which saves a quarter of their memory
        sizes = {size: size for size in config.size_ladder}
        chunks = [[row._replace(N=sizes[row.N], true_value=chunk[0].true_value)
                   for row in chunk] for chunk in chunks]
    else:
        chunks = [_rep_rows(*task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.estimator, r.N, r.rep))
    return rows


def _write_csv(path, header, rows):
    """Write one header line and the rows as CSV.

    Floats are repr-formatted (shortest round trip) so identical runs
    produce byte-identical files; None is an empty field.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, float) else "" if v is None else v
                 for v in row]
            )


def write_rows_csv(rows, path):
    """Write `estimator,N,rep,estimate,true_value,posterior_std` rows."""
    _write_csv(path, Row._fields, rows)


def compute_nstar(rows):
    """First-enter-then-stay convergence size per estimator.

    The mean curve is mean(estimate)/mean(truth) per size; it must stay
    within _NSTAR_BAND of 1.  Returns {estimator: N* or None}.
    """
    curves = {}
    for row in rows:
        curves.setdefault(row.estimator, {}).setdefault(row.N, []).append(
            (row.estimate, row.true_value)
        )
    out = {}
    for name, by_size in curves.items():
        out[name] = None
        for size in sorted(by_size, reverse=True):
            estimates, truths = zip(*by_size[size])
            mean_true = float(np.mean(truths))
            if mean_true == 0.0:
                break
            if not abs(float(np.mean(estimates)) / mean_true - 1.0) <= _NSTAR_BAND:
                break
            out[name] = size
    return out


def run_nstar(config, alpha_values, beta_values):
    """Score a grid of truth concentrations; returns nstar CSV entries.

    Each (alpha_true, beta_true) cell reruns the convergence ladder with
    the same master seed and reduces it to N*/K per estimator.
    """
    if config.generator != "dirichlet":
        raise ValueError("the nstar grid sweeps Dirichlet truths")
    entries = []
    for a in alpha_values:
        for b in beta_values:
            cell = replace(config, alpha_true=float(a), beta_true=float(b))
            scores = compute_nstar(run_convergence(cell))
            for name in sorted(cell.estimators):
                nstar = scores.get(name)
                entries.append((float(a), float(b), name,
                                None if nstar is None else nstar / cell.category_count))
    return entries


def write_nstar_csv(entries, path):
    """Write `alpha_true,beta_true,estimator,nstar_over_k` entries."""
    _write_csv(path, ("alpha_true", "beta_true", "estimator", "nstar_over_k"), entries)
