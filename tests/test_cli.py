"""End-to-end tests of the command-line interface.

Every test calls ``main(argv)`` in process and checks the exit code plus
whatever landed on stdout or in the output file.
"""

import itertools
import json
import warnings
from dataclasses import fields

import pytest

import bayesdiv.estimators
from bayesdiv import benchmark
from bayesdiv.cli import main


def _tsv(tmp_path, name, counts, k=None):
    lines = [] if k is None else [f"#K={k}"]
    lines += [f"cat{i}\t{c}" for i, c in enumerate(counts)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _pair_csv(tmp_path, name, n, m):
    path = tmp_path / name
    path.write_text("\n".join(f"{a},{b}" for a, b in zip(n, m)) + "\n")
    return str(path)


def _assert_same_bytes(path_a, path_b):
    """Byte equality of two output files; a failure names the first five
    lines that differ, as each file has them."""
    a, b = path_a.read_bytes(), path_b.read_bytes()
    lines = itertools.zip_longest(a.splitlines(), b.splitlines())
    differ = [f"line {i}: {x!r} != {y!r}" for i, (x, y) in enumerate(lines, 1) if x != y]
    assert a == b, f"{path_a.name} and {path_b.name} differ:\n" + "\n".join(differ[:5])


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- estimate ------------------------------------------------------------------------

def test_estimate_jeffreys_identical_files_zero(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [5, 3, 2], k=4)
    f2 = _tsv(tmp_path, "b.tsv", [5, 3, 2], k=4)
    code, payload = _run_json(capsys, ["estimate", f1, f2, "--estimator", "jeffreys"])
    assert code == 0
    assert payload == {"divergence": "kl", "estimator": "jeffreys", "value": 0.0}


def test_estimate_zhang_can_be_negative(tmp_path, capsys):
    joint = _pair_csv(tmp_path, "pair.csv", [2, 1, 0], [2, 1, 0])
    code, payload = _run_json(capsys, ["estimate", joint, "--estimator", "zhang"])
    assert code == 0
    assert payload["value"] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_estimate_dpm_emits_posterior_std_and_diagnostics(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [4, 1, 0, 2], k=6)
    f2 = _tsv(tmp_path, "b.tsv", [1, 3, 1, 1], k=6)
    code, payload = _run_json(capsys, ["estimate", f1, f2, "--estimator", "dpm"])
    assert code == 0
    assert set(payload) == {"divergence", "estimator", "value", "posterior_std", "diagnostics"}
    assert payload["posterior_std"] > 0.0
    assert payload["diagnostics"]["alpha_star"] > 0.0


def test_estimate_dp_has_diagnostics_but_no_std(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [4, 1, 0, 2], k=6)
    f2 = _tsv(tmp_path, "b.tsv", [1, 3, 1, 1], k=6)
    code, payload = _run_json(capsys, ["estimate", f1, f2, "--estimator", "dp"])
    assert code == 0
    assert "posterior_std" not in payload
    assert "diagnostics" in payload


def test_estimate_hellinger_dpm_omits_std(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [4, 1, 0, 2], k=6)
    f2 = _tsv(tmp_path, "b.tsv", [1, 3, 1, 1], k=6)
    code, payload = _run_json(
        capsys, ["estimate", f1, f2, "--estimator", "dpm", "--divergence", "hellinger2"]
    )
    assert code == 0
    assert "posterior_std" not in payload
    assert 0.0 <= payload["value"] < 1.0


def test_estimate_default_estimator_is_dpm(tmp_path, capsys):
    joint = _pair_csv(tmp_path, "pair.csv", [3, 1], [1, 2])
    code, payload = _run_json(capsys, ["estimate", joint])
    assert code == 0
    assert payload["estimator"] == "dpm"


def test_estimate_missing_file_exits_2(tmp_path, capsys):
    code = main(["estimate", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_estimate_k_mismatch_exits_2(tmp_path, capsys):
    joint = _pair_csv(tmp_path, "pair.csv", [2, 1, 0], [2, 1, 0])
    code = main(["estimate", joint, "--k", "2"])
    assert code == 2


def test_estimate_tsv_without_k_exits_2(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [5, 3])
    f2 = _tsv(tmp_path, "b.tsv", [4, 4])
    code = main(["estimate", f1, f2, "--estimator", "naive"])
    assert code == 2
    assert "K" in capsys.readouterr().err


def test_estimate_zhang_hellinger_exits_2(tmp_path, capsys):
    joint = _pair_csv(tmp_path, "pair.csv", [2, 1], [1, 2])
    code = main(["estimate", joint, "--estimator", "zhang", "--divergence", "hellinger2"])
    assert code == 2


def test_estimate_domain_error_exits_3(tmp_path, capsys):
    joint = _pair_csv(tmp_path, "empty.csv", [0, 0], [1, 2])
    code = main(["estimate", joint, "--estimator", "naive"])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["csv", "tsv"])
def test_estimate_count_past_int64_exits_2_naming_the_line(tmp_path, capsys, form):
    big = 10**20
    if form == "csv":
        files = [_pair_csv(tmp_path, "pair.csv", [1, big], [2, 3])]
    else:
        files = [_tsv(tmp_path, "a.tsv", [1, big], k=4), _tsv(tmp_path, "b.tsv", [2, 3])]
    code = main(["estimate", *files, "--estimator", "naive"])
    assert code == 2
    assert f"{files[0]}:{3 if form == 'tsv' else 2}:" in capsys.readouterr().err



def test_estimate_file_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "pair.csv"
    path.write_bytes(b"3,1\n\xff0,2\n1,0\n")
    code = main(["estimate", str(path), "--estimator", "naive"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text: byte 0xff\n"


def test_estimate_k_disagreeing_with_the_k_header_exits_2(tmp_path, capsys):
    f1 = _tsv(tmp_path, "a.tsv", [5, 3], k=4)
    f2 = _tsv(tmp_path, "b.tsv", [4, 4])
    code = main(["estimate", f1, f2, "--k", "5", "--estimator", "naive"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {f1}: has #K=4 but --k=5\n"


@pytest.mark.parametrize("estimator", ["dpm", "zhang"])
@pytest.mark.parametrize("form", ["csv", "tsv"])
def test_a_successful_estimate_writes_nothing_to_stderr(tmp_path, capsys, form, estimator):
    if form == "csv":   # a comment line too, which numpy's reader skips
        (tmp_path / "pair.csv").write_text("# n,m\n5,3\n0,1\n2,0\n1,2\n")
        files = [str(tmp_path / "pair.csv")]
    else:
        files = [_tsv(tmp_path, "a.tsv", [5, 2, 1], k=6), _tsv(tmp_path, "b.tsv", [3, 1, 0, 2])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", *files, "--estimator", estimator])
    assert (code, capsys.readouterr().err, caught) == (0, "", [])

# --- convergence ---------------------------------------------------------------------

CONV_FLAGS = [
    "--k", "6", "--ladder", "10,20", "--reps", "2",
    "--estimator", "naive,zhang", "--seed", "11",
]


def test_convergence_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["convergence", *CONV_FLAGS, "--out", str(out_a)]) == 0
    assert main(["convergence", *CONV_FLAGS, "--out", str(out_b)]) == 0
    data = out_a.read_bytes()
    assert data == out_b.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "estimator,N,rep,estimate,true_value,posterior_std"
    assert len(lines) == 1 + 2 * 2 * 2


def test_convergence_workers_flag_does_not_change_output(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["convergence", *CONV_FLAGS, "--out", str(out_a)]) == 0
    assert main(["convergence", *CONV_FLAGS, "--workers", "2", "--out", str(out_b)]) == 0
    _assert_same_bytes(out_a, out_b)


def test_convergence_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(benchmark, "run_convergence", lambda c: seen.append(c) or [])
    assert main(["convergence", "--out", str(tmp_path / "c.csv")]) == 0
    assert seen == [benchmark.ExperimentConfig()]


def test_convergence_requires_out(capsys):
    assert main(["convergence", *CONV_FLAGS]) == 2
    assert "--out" in capsys.readouterr().err


def test_convergence_rejects_bad_config_value(tmp_path, capsys):
    code = main(["convergence", "--k", "1", "--ladder", "10", "--reps", "1",
                 "--estimator", "naive", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_convergence_rejects_alpha_list(tmp_path, capsys):
    code = main(["convergence", *CONV_FLAGS, "--alpha", "1.0,2.0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_convergence_rejects_infinite_alpha(tmp_path, capsys):
    code = main(["convergence", *CONV_FLAGS, "--alpha", "inf",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "alpha_true" in capsys.readouterr().err


def test_convergence_underflowing_truth_exits_2(tmp_path, capsys):
    # a configuration error found during the run, not an estimator's rejection
    code = main(["convergence", *CONV_FLAGS, "--alpha", "1e-300",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "underflowing" in capsys.readouterr().err


def test_rejection_inside_a_worker_exits_3(tmp_path, capsys, monkeypatch):
    # pool workers forked after the patch inherit the patched front-end;
    # the shared pool is dropped before the run so that its workers are
    # forked afresh, and after it so that no later run reuses them
    def reject(*args):
        raise ValueError("rejected in a worker")

    monkeypatch.setattr(bayesdiv.estimators, "estimate_dkl_plugin", reject)
    benchmark._drop_pool()
    try:
        code = main(["convergence", *CONV_FLAGS, "--workers", "2",
                     "--out", str(tmp_path / "x.csv")])
    finally:
        benchmark._drop_pool()
    assert code == 3
    assert "rejected in a worker" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "nstar"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # the output path is checked before the run, so no estimate is made
    def no_estimate(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(bayesdiv.estimators, "estimate", no_estimate)
    code = main([command, "--k", "6", "--ladder", "10,20", "--reps", "1",
                 "--estimator", "naive", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_convergence_markov_generator(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main([
        "convergence", "--generator", "markov", "--states", "3", "--gram-length", "1",
        "--ladder", "15,30", "--reps", "2", "--estimator", "naive,dp",
        "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def _args_file(tmp_path, *lines):
    path = tmp_path / "run.args"
    path.write_text("\n".join(lines) + "\n")
    return "@" + str(path)


def test_convergence_args_file_and_later_flag_override(tmp_path, capsys):
    args_file = _args_file(
        tmp_path,
        "# tiny run",
        "--k 6 --ladder 10,20",
        "",
        "--reps 2   # overridden below",
        "--estimator naive",
        "--seed 11",
    )
    out = tmp_path / "out.csv"
    assert main(["convergence", args_file, "--reps", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # flag --reps 3 overrides --reps 2 from the file
    assert len(lines) == 1 + 1 * 2 * 3


def test_convergence_unknown_flag_in_args_file_exits_2(tmp_path, capsys):
    args_file = _args_file(tmp_path, "--krnl 6")
    code = main(["convergence", args_file, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "krnl" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "nstar"])
def test_missing_args_file_exits_2(tmp_path, capsys, command):
    code = main([command, "@" + str(tmp_path / "nope.args"), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "nope.args" in capsys.readouterr().err


def test_estimate_reads_an_at_sign_path_as_a_count_file(tmp_path, capsys, monkeypatch):
    _pair_csv(tmp_path, "@pair.csv", [3, 1], [1, 2])
    monkeypatch.chdir(tmp_path)
    code, payload = _run_json(capsys, ["estimate", "@pair.csv", "--estimator", "jeffreys"])
    assert code == 0
    assert payload["value"] > 0.0


# (flag, its value or None for a bare flag, the ExperimentConfig fields
# it sets).  hellinger2 needs an estimator list without zhang, which is
# KL-only.
SETTINGS = [
    ("--generator", "markov", {"generator": "markov"}),
    ("--k", "7", {"K": 7}),
    ("--states", "5", {"states": 5}),
    ("--gram-length", "3", {"gram_length": 3}),
    ("--alpha", "2.5", {"alpha_true": 2.5}),
    ("--beta", "0.5", {"beta_true": 0.5}),
    ("--ladder", "10,20", {"size_ladder": (10, 20)}),
    ("--reps", "3", {"repetitions": 3}),
    ("--estimator", "naive,zhang", {"estimators": ("naive", "zhang")}),
    ("--divergence", "hellinger2", {"divergence": "hellinger2", "estimators": ("naive",)}),
    ("--seed", "9", {"master_seed": 9}),
    ("--nested-subsample", None, {"nested_subsample": True}),
    ("--workers", "2", {"workers": 2}),
]


def test_settings_cover_every_config_field():
    covered = {name for _, _, set_fields in SETTINGS for name in set_fields}
    assert covered == {f.name for f in fields(benchmark.ExperimentConfig)}


@pytest.mark.parametrize("command", ["convergence", "nstar"])
@pytest.mark.parametrize("via", ["flag", "file"])
@pytest.mark.parametrize("flag, text, set_fields", SETTINGS, ids=[s[0][2:] for s in SETTINGS])
def test_every_setting_reaches_the_config(tmp_path, monkeypatch, command, via, flag, text,
                                          set_fields):
    seen = []
    monkeypatch.setattr(benchmark, "run_convergence", lambda c: seen.append(c) or [])
    monkeypatch.setattr(benchmark, "run_nstar", lambda c, a, b: seen.append(c) or [])
    tokens = [flag] if text is None else [flag, text]
    if via == "file":
        tokens = [_args_file(tmp_path, "# one setting", "", " ".join(tokens))]
    argv = [command, "--out", str(tmp_path / "c.csv"), *tokens]
    if flag == "--divergence":
        argv += ["--estimator", "naive"]
    assert main(argv) == 0
    assert seen == [benchmark.ExperimentConfig(**set_fields)]


# --- nstar ---------------------------------------------------------------------------

def test_nstar_grid_csv(tmp_path, capsys):
    out = tmp_path / "nstar.csv"
    code = main([
        "nstar", "--k", "6", "--ladder", "20,40", "--reps", "2",
        "--estimator", "naive,jeffreys", "--alpha", "1.0", "--beta", "1.0,4.0",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_true,beta_true,estimator,nstar_over_k"
    assert len(lines) == 1 + 1 * 2 * 2
    assert lines[1].startswith("1.0,1.0,jeffreys,")


def test_nstar_workers_flag_does_not_change_output(tmp_path, capsys):
    # every cell of the grid reuses the one shared pool
    flags = ["nstar", "--k", "6", "--ladder", "20,40", "--reps", "3",
             "--estimator", "dpm,naive", "--alpha", "0.5,2.0", "--beta", "1.0,4.0",
             "--seed", "7"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*flags, "--out", str(out_a)]) == 0
    assert main([*flags, "--workers", "2", "--out", str(out_b)]) == 0
    _assert_same_bytes(out_a, out_b)


def test_nstar_requires_out(capsys):
    assert main(["nstar", "--k", "6", "--ladder", "20", "--reps", "1",
                 "--estimator", "naive"]) == 2


def test_nstar_markov_exits_2(tmp_path, capsys):
    code = main([
        "nstar", "--generator", "markov", "--states", "3", "--gram-length", "1",
        "--ladder", "10,20", "--reps", "1", "--estimator", "naive",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "Dirichlet" in capsys.readouterr().err


def test_nstar_empty_alpha_list_exits_2(tmp_path, capsys):
    code = main(["nstar", "--alpha", ",", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--alpha" in capsys.readouterr().err


def test_nstar_rejects_a_non_positive_alpha_in_the_list(tmp_path, capsys):
    code = main(["nstar", "--k", "6", "--ladder", "20", "--reps", "1",
                 "--estimator", "naive", "--alpha", "1,-1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--alpha" in capsys.readouterr().err
