"""Command-line front end.

Three subcommands:

* ``estimate``: divergence between two count files, JSON to stdout.
* ``convergence``: repetition ladders of synthetic data, tidy CSV.
* ``nstar``: N*/K convergence scores over a grid of Dirichlet truths.

``convergence`` and ``nstar`` take flags only, each flag's dest an
``ExperimentConfig`` field.  An ``@FILE`` argument stands for the flags
in that file ("#" starts a comment); a flag after it overrides it.
``estimate`` expands no ``@``.

Exit codes: 0 on success; 3 only when an estimator rejects a table
(``estimators.EstimatorError``); 2 for every other input, configuration
or output-file problem, also one found during a run.
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


def _arg_line_tokens(line):
    """The flags on one line of an @FILE: "#" starts a comment."""
    return line.split("#", 1)[0].split()


def _set_fields(args):
    """The ExperimentConfig fields set by a flag."""
    given = {f.name: getattr(args, f.name, None) for f in fields(benchmark.ExperimentConfig)}
    return {name: value for name, value in given.items() if value is not None}


def cmd_estimate(args):
    est.check_estimator(args.estimator, args.divergence)
    table = load_count_files(args.file1, args.file2, k=args.k)
    report = est.estimate(table, args.estimator, args.divergence)
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


def _run_experiment(args, run, write, **truth):
    """Build the config, check --out, run, and write the CSV."""
    config = benchmark.ExperimentConfig(**_set_fields(args), **truth)
    if not args.out:
        raise ValueError(f"--out is required for {args.command} runs")
    open(args.out, "a").close()   # fail before the run; append truncates nothing
    write(run(config), args.out)
    return 0


def cmd_convergence(args):
    return _run_experiment(args, benchmark.run_convergence, benchmark.write_rows_csv)


def cmd_nstar(args):
    alphas = (benchmark.ExperimentConfig.alpha_true,) if args.alpha is None else args.alpha
    betas = (benchmark.ExperimentConfig.beta_true,) if args.beta is None else args.beta
    check_positive(alphas, "--alpha")
    check_positive(betas, "--beta")
    return _run_experiment(args, lambda config: benchmark.run_nstar(config, alphas, betas),
                           benchmark.write_nstar_csv, alpha_true=alphas[0], beta_true=betas[0])


def _add_experiment_parser(subs, name, help, func):
    """A subcommand whose flags set ExperimentConfig fields (each dest is
    one) and may also be read from an @FILE."""
    sub = subs.add_parser(name, help=help, fromfile_prefix_chars="@")
    sub.convert_arg_line_to_args = _arg_line_tokens
    sub.add_argument("--generator", choices=("dirichlet", "markov"))
    sub.add_argument("--k", dest="K", type=int, help="number of categories (dirichlet)")
    sub.add_argument("--states", type=int, help="markov state count")
    sub.add_argument("--gram-length", type=int)
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
    sub.add_argument("--workers", type=int, help="parallel repetition workers")
    sub.set_defaults(func=func)
    return sub


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

    p_conv = _add_experiment_parser(subs, "convergence", "run a convergence ladder to CSV",
                                    cmd_convergence)
    p_nstar = _add_experiment_parser(subs, "nstar", "N*/K scores over a truth grid", cmd_nstar)
    for key in ("alpha", "beta"):
        p_conv.add_argument(f"--{key}", dest=f"{key}_true", metavar=key.upper(), type=float,
                            help="truth concentration")
        p_nstar.add_argument(f"--{key}", type=_floats,
                             help="truth concentrations, comma separated")

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, est.EstimatorError) else 2


if __name__ == "__main__":
    sys.exit(main())
