"""Tests for the convergence benchmark harness."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from bayesdiv import benchmark, synth
from bayesdiv.benchmark import (
    DEFAULT_LADDER,
    ESTIMATOR_NAMES,
    ExperimentConfig,
    Row,
    compute_nstar,
    run_convergence,
    run_nstar,
    write_nstar_csv,
    write_rows_csv,
)


# --- configuration validation --------------------------------------------------------

def test_default_ladder_frozen():
    assert DEFAULT_LADDER == (25, 50, 100, 200, 400, 1000, 4000, 10000, 40000)
    assert ESTIMATOR_NAMES == ("dpm", "dp", "naive", "jeffreys", "trybula", "perks", "zhang")


def test_config_defaults_valid():
    config = ExperimentConfig()
    assert config.generator == "dirichlet"
    assert config.category_count == 400
    assert config.size_ladder == DEFAULT_LADDER


def test_config_category_count_markov():
    config = ExperimentConfig(generator="markov", states=20, gram_length=2)
    assert config.category_count == 400
    assert ExperimentConfig(generator="markov", states=4, gram_length=3).category_count == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"generator": "uniform"},
        {"divergence": "tv"},
        {"K": 1},
        {"alpha_true": 0.0},
        {"beta_true": -1.0},
        {"generator": "markov", "states": 1},
        {"generator": "markov", "gram_length": 0},
        {"generator": "markov", "states": 2.5},
        {"size_ladder": ()},
        {"size_ladder": (0, 10)},
        {"size_ladder": (10, 10)},
        {"size_ladder": (20, 10)},
        {"repetitions": 0},
        {"estimators": ()},
        {"estimators": ("naive", "mle")},
        {"estimators": ("naive", "naive")},
        {"estimators": ("zhang",), "divergence": "hellinger2"},
        {"workers": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_coerces_ladder_to_int_tuple():
    config = ExperimentConfig(size_ladder=[10.0, 20.0], estimators=["naive"])
    assert config.size_ladder == (10, 20)
    assert config.estimators == ("naive",)


# --- run_convergence -----------------------------------------------------------------

SMALL = ExperimentConfig(
    K=8,
    size_ladder=(10, 25),
    repetitions=3,
    estimators=("dpm", "naive", "zhang"),
    master_seed=42,
)


def test_run_shape_and_ordering():
    rows = run_convergence(SMALL)
    assert len(rows) == 3 * 2 * 3  # estimators x sizes x reps
    keys = [(r.estimator, r.N, r.rep) for r in rows]
    assert keys == sorted(keys)
    assert {r.estimator for r in rows} == {"dpm", "naive", "zhang"}
    assert {r.N for r in rows} == {10, 25}
    assert {r.rep for r in rows} == {0, 1, 2}


def test_run_posterior_std_only_for_dpm():
    for row in run_convergence(SMALL):
        if row.estimator == "dpm":
            assert row.posterior_std is not None and row.posterior_std >= 0.0
        else:
            assert row.posterior_std is None


def test_dirichlet_truth_constant_within_rep_and_fresh_across_reps():
    rows = run_convergence(SMALL)
    by_rep = {}
    for row in rows:
        by_rep.setdefault(row.rep, set()).add(row.true_value)
    assert all(len(vals) == 1 for vals in by_rep.values())
    truths = {vals.pop() for vals in by_rep.values()}
    assert len(truths) == 3
    assert all(t > 0.0 for t in truths)


def test_markov_truth_shared_across_reps():
    config = ExperimentConfig(
        generator="markov",
        states=3,
        gram_length=1,
        size_ladder=(15, 30),
        repetitions=3,
        estimators=("naive", "dp"),
        master_seed=5,
    )
    rows = run_convergence(config)
    truths = {row.true_value for row in rows}
    assert len(truths) == 1
    assert truths.pop() > 0.0


@pytest.mark.parametrize("divergence", ["kl", "hellinger2"])
def test_markov_truth_matches_the_chain_formulas(divergence):
    config = ExperimentConfig(
        generator="markov",
        states=4,
        gram_length=3,
        size_ladder=(20,),
        repetitions=2,
        estimators=("naive",),
        divergence=divergence,
        master_seed=11,
    )
    # the two chains come from the master seed's first two children
    spec_q, spec_t = (
        synth.build_markov_spec(4, 3, np.random.default_rng(seed))
        for seed in np.random.SeedSequence(11).spawn(2)
    )
    if divergence == "kl":
        closed_form = synth.markov_crossentropy(spec_q, spec_t) - synth.markov_entropy(spec_q)
        want = pytest.approx(closed_form, rel=1e-12, abs=0)
    else:
        want = synth.exact_hellinger_sq(
            synth.lgram_distribution(spec_q), synth.lgram_distribution(spec_t)
        )
    for row in run_convergence(config):
        assert row.true_value == want


def test_run_deterministic_across_calls_and_workers():
    rows_a = run_convergence(SMALL)
    rows_b = run_convergence(SMALL)
    assert rows_a == rows_b
    from dataclasses import replace

    rows_c = run_convergence(replace(SMALL, workers=2))
    assert rows_a == rows_c


def _blas_threads():
    """OpenBLAS thread count of every copy loaded in the calling process."""
    libs = benchmark._openblas_libraries()
    return [benchmark._openblas_function(lib, "get")() for lib in libs]


def test_pool_workers_run_blas_on_one_thread():
    if np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].endswith("openblas"):
        names = [lib._name for lib in benchmark._openblas_libraries()]
        assert any("numpy" in name for name in names), names
    with benchmark._pool(2) as pool:
        counts = pool.submit(_blas_threads).result()
    assert all(count == 1 for count in counts)


def test_run_convergence_keeps_the_callers_blas_threads():
    before = _blas_threads()
    run_convergence(replace(SMALL, workers=2))
    assert _blas_threads() == before


def test_nested_subsample_deterministic():
    from dataclasses import replace

    config = replace(SMALL, nested_subsample=True, estimators=("naive", "zhang"))
    rows_a = run_convergence(config)
    rows_b = run_convergence(config)
    assert rows_a == rows_b
    assert len(rows_a) == 2 * 2 * 3
    # nesting changes the draws relative to the fresh protocol
    fresh = run_convergence(replace(SMALL, estimators=("naive", "zhang")))
    assert rows_a != fresh


def test_hellinger_divergence_runs():
    from dataclasses import replace

    config = replace(SMALL, divergence="hellinger2", estimators=("dpm", "jeffreys"))
    rows = run_convergence(config)
    for row in rows:
        assert 0.0 <= row.true_value < 1.0
        if row.estimator == "jeffreys":
            assert 0.0 <= row.estimate <= 1.0


# --- CSV round trip ------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    rows = run_convergence(SMALL)
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    # floats are written as repr, which parses back to the same double; a
    # missing posterior_std is an empty field
    assert records == [
        {
            "estimator": row.estimator,
            "N": str(row.N),
            "rep": str(row.rep),
            "estimate": repr(row.estimate),
            "true_value": repr(row.true_value),
            "posterior_std": "" if row.posterior_std is None else repr(row.posterior_std),
        }
        for row in rows
    ]
    assert any(row.posterior_std is None for row in rows)
    assert [float(rec["estimate"]) for rec in records] == [row.estimate for row in rows]


def test_csv_byte_identical_across_runs(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_rows_csv(run_convergence(SMALL), path_a)
    write_rows_csv(run_convergence(SMALL), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_csv_header_and_empty_std_field(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv([Row("naive", 10, 0, 0.25, 0.5, None)], path)
    header, line = path.read_text().splitlines()
    assert header == "estimator,N,rep,estimate,true_value,posterior_std"
    assert line == "naive,10,0,0.25,0.5,"


# --- N* scoring ----------------------------------------------------------------------

def _curve_rows(name, ratios, truth=1.0):
    sizes = [10 * 2**i for i in range(len(ratios))]
    return [Row(name, s, 0, r * truth, truth, None) for s, r in zip(sizes, ratios)]


def test_nstar_first_entry_then_stay():
    rows = _curve_rows("a", [1.2, 1.04, 1.03])
    assert compute_nstar(rows) == {"a": 20}


def test_nstar_requires_staying_inside():
    rows = _curve_rows("b", [0.9, 1.02, 1.2])
    assert compute_nstar(rows) == {"b": None}


def test_nstar_reentry_counts_from_the_stay():
    rows = _curve_rows("c", [1.01, 1.5, 0.98])
    assert compute_nstar(rows) == {"c": 40}


def test_nstar_monotone_under_passing_extension():
    base = _curve_rows("a", [1.2, 1.04, 1.03])
    extended = base + [Row("a", 80, 0, 1.0, 1.0, None)]
    assert compute_nstar(extended)["a"] == compute_nstar(base)["a"] == 20
    never = _curve_rows("b", [0.9, 1.02, 1.2])
    rescued = never + [Row("b", 80, 0, 1.0, 1.0, None)]
    assert compute_nstar(never)["b"] is None
    assert compute_nstar(rescued)["b"] == 80


def test_nstar_zero_truth_never_converges():
    rows = [Row("a", 10, 0, 0.0, 0.0, None), Row("a", 20, 0, 0.0, 0.0, None)]
    assert compute_nstar(rows) == {"a": None}


def test_nstar_multiple_estimators_scored_independently():
    rows = _curve_rows("a", [1.01, 1.0]) + _curve_rows("b", [2.0, 2.0])
    assert compute_nstar(rows) == {"a": 10, "b": None}


# --- N* grid sweep -------------------------------------------------------------------

def test_run_nstar_grid_entries(tmp_path):
    config = ExperimentConfig(
        K=6,
        size_ladder=(20, 40),
        repetitions=2,
        estimators=("naive", "jeffreys"),
        master_seed=7,
    )
    entries = run_nstar(config, [1.0], [1.0, 4.0])
    assert len(entries) == 2 * 2
    assert [(a, b, name) for a, b, name, _ in entries] == [
        (1.0, 1.0, "jeffreys"),
        (1.0, 1.0, "naive"),
        (1.0, 4.0, "jeffreys"),
        (1.0, 4.0, "naive"),
    ]
    for _, _, _, score in entries:
        assert score is None or score in (20 / 6, 40 / 6)

    path = tmp_path / "nstar.csv"
    write_nstar_csv(entries, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha_true,beta_true,estimator,nstar_over_k"
    assert len(lines) == 5
    for line, (_, _, _, score) in zip(lines[1:], entries):
        if score is None:
            assert line.endswith(",")


def test_run_nstar_rejects_markov():
    config = ExperimentConfig(
        generator="markov",
        states=3,
        gram_length=1,
        size_ladder=(10, 20),
        repetitions=1,
        estimators=("naive",),
    )
    with pytest.raises(ValueError):
        run_nstar(config, [1.0], [1.0])
