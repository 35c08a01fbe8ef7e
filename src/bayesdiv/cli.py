"""Command-line front end.

Three subcommands:

* ``estimate``: divergence between two count files, JSON to stdout.
* ``convergence``: repetition ladders of synthetic data, tidy CSV.
* ``nstar``: N*/K convergence scores over a grid of Dirichlet truths.

Exit codes: 0 on success, 2 for input, configuration or output-file
problems, 3 when an estimator rejects its input (domain error).
"""

import argparse
import json
import sys
from dataclasses import fields

from . import benchmark
from . import estimators as est
from .counts import load_count_files
from .specfun import check_positive

__all__ = ["main"]


def _ints(text):
    return tuple(int(part) for part in text.split(",") if part != "")

def _floats(text):
    return tuple(float(part) for part in text.split(",") if part != "")

def _names(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())

def _bool(text):
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _config_tokens(path):
    """The `key = value` lines of a config file as flag tokens.

    Blank lines and # comments are skipped; a key may be spelled with
    "-" or "_".  A true ``nested_subsample`` becomes the bare flag.
    """
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag == "--nested-subsample":
                tokens += [flag] if _bool(value) else []
            else:
                tokens.append(f"{flag}={value.strip()}")
    return tokens


def _set_fields(args):
    """The ExperimentConfig fields set by a flag or a config line."""
    given = {f.name: getattr(args, f.name, None) for f in fields(benchmark.ExperimentConfig)}
    return {name: value for name, value in given.items() if value is not None}


def _single(values, flag):
    if len(values) != 1:
        raise ValueError(f"--{flag} takes one value here")
    return values[0]


class _EstimatorError(Exception):
    """An estimator rejected its input (domain error, exit code 3)."""


def _run(fn, *args):
    """``fn(*args)``, with its ValueError raised as an _EstimatorError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise _EstimatorError(exc) from exc


def cmd_estimate(args):
    est.check_estimator(args.estimator, args.divergence)
    table = load_count_files(args.file1, args.file2, k=args.k)
    report = _run(est.estimate, table, args.estimator, args.divergence)
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
    truth = {
        f"{key}_true": _single(getattr(args, key), key)
        for key in ("alpha", "beta") if getattr(args, key) is not None
    }
    config = benchmark.ExperimentConfig(**_set_fields(args), **truth)
    if not args.out:
        raise ValueError("--out is required for convergence runs")
    open(args.out, "a").close()   # fail before the run; append truncates nothing
    benchmark.write_rows_csv(_run(benchmark.run_convergence, config), args.out)
    return 0


def cmd_nstar(args):
    alphas = (benchmark.ExperimentConfig.alpha_true,) if args.alpha is None else args.alpha
    betas = (benchmark.ExperimentConfig.beta_true,) if args.beta is None else args.beta
    check_positive(alphas, "--alpha")
    check_positive(betas, "--beta")
    config = benchmark.ExperimentConfig(
        **_set_fields(args), alpha_true=alphas[0], beta_true=betas[0]
    )
    if not args.out:
        raise ValueError("--out is required for nstar runs")
    open(args.out, "a").close()   # fail before the run; append truncates nothing
    benchmark.write_nstar_csv(_run(benchmark.run_nstar, config, alphas, betas), args.out)
    return 0


def _add_experiment_flags(sub):
    """The settings of convergence and nstar; each dest is an ExperimentConfig field."""
    sub.add_argument("--config", help="key=value file; flags override it")
    sub.add_argument("--generator", choices=("dirichlet", "markov"))
    sub.add_argument("--k", dest="K", type=int, help="number of categories (dirichlet)")
    sub.add_argument("--states", type=int, help="markov state count")
    sub.add_argument("--gram-length", type=int)
    sub.add_argument("--alpha", type=_floats, help="truth concentration(s), comma separated")
    sub.add_argument("--beta", type=_floats, help="truth concentration(s), comma separated")
    sub.add_argument("--ladder", dest="size_ladder", metavar="LADDER", type=_ints,
                     help="sample sizes, comma separated")
    sub.add_argument("--reps", dest="repetitions", metavar="REPS", type=int)
    sub.add_argument("--estimator", dest="estimators", metavar="ESTIMATOR", type=_names,
                     help="comma-separated estimator names")
    sub.add_argument("--divergence", choices=est.DIVERGENCES)
    sub.add_argument("--seed", dest="master_seed", metavar="SEED", type=int)
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--nested-subsample", action="store_true", default=None,
                     help="subsample each ladder size from one parent sample")
    sub.add_argument("--parent-size", type=int)
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

    # config lines go right after the subcommand, so that explicit flags,
    # parsed later, override them
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args([argv[0], *_config_tokens(args.config), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except (OSError, ValueError, _EstimatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _EstimatorError) else 2


if __name__ == "__main__":
    sys.exit(main())
