"""Command-line front end.

Three subcommands:

* ``estimate``: divergence between two count files, JSON to stdout.
* ``convergence``: repetition ladders of synthetic data, tidy CSV.
* ``nstar``: N*/K convergence scores over a grid of Dirichlet truths.

Exit codes: 0 on success, 2 for input or configuration problems, 3 when
an estimator rejects its input (domain error).
"""

import argparse
import json
import sys

from . import benchmark
from . import estimators as est
from .counts import load_count_files

__all__ = ["main"]

_GENERATORS = ("dirichlet", "markov")


def _ints(text):
    return tuple(int(part) for part in str(text).split(",") if part != "")

def _floats(text):
    return tuple(float(part) for part in str(text).split(",") if part != "")

def _names(text):
    return tuple(part.strip() for part in str(text).split(",") if part.strip())

def _bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_config_file(path):
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# configuration keys shared by convergence and nstar: the ExperimentConfig
# field each one sets (None for the output path) and the coercer for values
# arriving as strings from a config file.  Unset keys keep the field default.
_CONFIG_KEYS = {
    "generator": ("generator", str),
    "k": ("K", int),
    "states": ("states", int),
    "gram_length": ("gram_length", int),
    "alpha": ("alpha_true", _floats),
    "beta": ("beta_true", _floats),
    "ladder": ("size_ladder", _ints),
    "reps": ("repetitions", int),
    "estimator": ("estimators", _names),
    "divergence": ("divergence", str),
    "seed": ("master_seed", int),
    "out": (None, str),
    "nested_subsample": ("nested_subsample", _bool),
    "parent_size": ("parent_size", int),
    "workers": ("workers", int),
}


def _merge_settings(args):
    """The keys set by the config file, then overridden by explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        file_values = _parse_config_file(args.config)
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _CONFIG_KEYS[key][1](raw)
    for key, (_, coerce) in _CONFIG_KEYS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = coerce(flag_value) if isinstance(flag_value, str) else flag_value
    return merged


def _experiment_config(settings, **truth):
    """ExperimentConfig from the set keys; ``truth`` gives the concentrations."""
    fields = {
        _CONFIG_KEYS[key][0]: value
        for key, value in settings.items()
        if key not in ("alpha", "beta", "out")
    }
    return benchmark.ExperimentConfig(**fields, **truth)


def _single(values, flag):
    if len(values) != 1:
        raise ValueError(f"--{flag} takes one value here")
    return values[0]


def cmd_estimate(args):
    try:
        est.check_estimator(args.estimator, args.divergence)
        table = load_count_files(args.file1, args.file2, k=args.k)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = est.estimate(table, args.estimator, args.divergence)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = {
        "estimator": args.estimator,
        "divergence": args.divergence,
        "value": report.value,
    }
    if report.posterior_std is not None:
        payload["posterior_std"] = report.posterior_std
    if report.diagnostics:
        payload["diagnostics"] = report.diagnostics
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_convergence(args):
    try:
        settings = _merge_settings(args)
        truth = {
            f"{key}_true": _single(settings[key], key)
            for key in ("alpha", "beta") if key in settings
        }
        config = _experiment_config(settings, **truth)
        out = settings.get("out")
        if not out:
            raise ValueError("--out is required for convergence runs")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = benchmark.run_convergence(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    benchmark.write_rows_csv(rows, out)
    return 0


def cmd_nstar(args):
    try:
        settings = _merge_settings(args)
        alphas = settings.get("alpha", (benchmark.ExperimentConfig.alpha_true,))
        betas = settings.get("beta", (benchmark.ExperimentConfig.beta_true,))
        if not alphas or not betas:
            raise ValueError("--alpha and --beta must list at least one value")
        config = _experiment_config(settings, alpha_true=alphas[0], beta_true=betas[0])
        out = settings.get("out")
        if not out:
            raise ValueError("--out is required for nstar runs")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        entries = benchmark.run_nstar(config, alphas, betas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    benchmark.write_nstar_csv(entries, out)
    return 0


def _add_experiment_flags(sub):
    sub.add_argument("--config", help="key=value file; flags override it")
    sub.add_argument("--generator", choices=_GENERATORS)
    sub.add_argument("--k", type=int, help="number of categories (dirichlet)")
    sub.add_argument("--states", type=int, help="markov state count")
    sub.add_argument("--gram-length", dest="gram_length", type=int)
    sub.add_argument("--alpha", help="truth concentration(s), comma separated")
    sub.add_argument("--beta", help="truth concentration(s), comma separated")
    sub.add_argument("--ladder", type=_ints, help="sample sizes, comma separated")
    sub.add_argument("--reps", type=int)
    sub.add_argument("--estimator", type=_names, help="comma-separated estimator names")
    sub.add_argument("--divergence", choices=est.DIVERGENCES)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument(
        "--nested-subsample",
        dest="nested_subsample",
        action="store_true",
        default=None,
        help="subsample each ladder size from one parent sample",
    )
    sub.add_argument("--parent-size", dest="parent_size", type=int)
    sub.add_argument("--workers", type=int, help="parallel repetition workers")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bayesdiv",
        description="Bayesian divergence estimation between count samples",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_est = subs.add_parser("estimate", help="estimate divergence from count files")
    p_est.add_argument("file1")
    p_est.add_argument("file2", nargs="?")
    p_est.add_argument("--estimator", default="dpm", choices=est.ESTIMATOR_NAMES)
    p_est.add_argument("--divergence", default="kl", choices=est.DIVERGENCES)
    p_est.add_argument("--k", type=int, help="number of categories")
    p_est.set_defaults(func=cmd_estimate)

    p_conv = subs.add_parser("convergence", help="run a convergence ladder to CSV")
    _add_experiment_flags(p_conv)
    p_conv.set_defaults(func=cmd_convergence)

    p_nstar = subs.add_parser("nstar", help="N*/K scores over a truth grid")
    _add_experiment_flags(p_nstar)
    p_nstar.set_defaults(func=cmd_nstar)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
