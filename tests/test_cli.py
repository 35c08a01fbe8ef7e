"""End-to-end tests of the command-line interface.

Every test calls ``main(argv)`` in process and checks the exit code plus
whatever landed on stdout or in the output file.
"""

import json
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
    assert out_a.read_bytes() == out_b.read_bytes()


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


def test_convergence_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny run\n"
        "k = 6\n"
        "ladder = 10,20\n"
        "reps = 2\n"
        "estimator = naive\n"
        "seed = 11\n"
    )
    out = tmp_path / "out.csv"
    assert main(["convergence", "--config", str(cfg), "--reps", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # flag --reps 3 overrides reps=2 from the file
    assert len(lines) == 1 + 1 * 2 * 3


def test_convergence_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("krnl = 6\n")
    code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "krnl" in capsys.readouterr().err


def test_convergence_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2


# (key, value, the ExperimentConfig fields it sets).  A config file may
# spell the key with "_" or "-".  hellinger2 needs an estimator list
# without zhang, which is KL-only.
SETTINGS = [
    ("generator", "markov", {"generator": "markov"}),
    ("k", "7", {"K": 7}),
    ("states", "5", {"states": 5}),
    ("gram_length", "3", {"gram_length": 3}),
    ("alpha", "2.5", {"alpha_true": 2.5}),
    ("beta", "0.5", {"beta_true": 0.5}),
    ("ladder", "10,20", {"size_ladder": (10, 20)}),
    ("reps", "3", {"repetitions": 3}),
    ("estimator", "naive,zhang", {"estimators": ("naive", "zhang")}),
    ("divergence", "hellinger2", {"divergence": "hellinger2", "estimators": ("naive",)}),
    ("seed", "9", {"master_seed": 9}),
    ("nested_subsample", "yes", {"nested_subsample": True}),
    ("parent_size", "50000", {"parent_size": 50000}),
    ("workers", "2", {"workers": 2}),
]


def test_settings_cover_every_config_field():
    covered = {name for _, _, set_fields in SETTINGS for name in set_fields}
    assert covered == {f.name for f in fields(benchmark.ExperimentConfig)}


@pytest.mark.parametrize("via", ["flag", "config_", "config-"])
@pytest.mark.parametrize("key, text, set_fields", SETTINGS, ids=[s[0] for s in SETTINGS])
def test_every_setting_reaches_the_config(tmp_path, monkeypatch, via, key, text, set_fields):
    seen = []
    monkeypatch.setattr(benchmark, "run_convergence", lambda c: seen.append(c) or [])
    argv = ["convergence", "--out", str(tmp_path / "c.csv")]
    if via == "flag":
        argv.append("--" + key.replace("_", "-"))
        if key != "nested_subsample":
            argv.append(text)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('_', via[-1])} = {text}\n")
        argv += ["--config", str(cfg)]
    if key == "divergence":
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


def test_nstar_requires_out(capsys):
    assert main(["nstar", "--k", "6", "--ladder", "20", "--reps", "1",
                 "--estimator", "naive"]) == 2


def test_nstar_markov_exits_3(tmp_path, capsys):
    code = main([
        "nstar", "--generator", "markov", "--states", "3", "--gram-length", "1",
        "--ladder", "10,20", "--reps", "1", "--estimator", "naive",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3
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
