"""Layered benchmark of bayesdiv.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Each workload runs in its own fresh process as one closed-loop client:
the next call starts when the previous one has returned.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` a separate traced run reports the
per-layer metrics instead.  The line before it (`REPORT {...}`) holds
the details: machine facts, sample counts, the tail percentile,
`failed_share`, `dpm_rel_err` and the full layer table.  The metrics,
workloads and layer table are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import measure
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# The workloads BENCHMARK.json lists.  Between them they reach every
# layer; runs of 60 s keep the host's run-to-run drift inside the bounds,
# and the time allowed for all runs leaves room for two such workloads.
WORKLOADS = ("ladder", "cli_file")
# Also runnable by name and by `all`: the grid-heavy and the
# scalar-heavy regimes of the dpm estimator on their own.
MORE_WORKLOADS = ("sparse", "dense")
SETUP_PROBES = 5

END_TO_END = {
    "estimates_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer metrics both listed workloads exercise; the ones only one of
# them reaches (file ingestion, synth, benchmark, cli) are in the REPORT
# line.  `sparse` and `dense` build their tables before the traced
# passes, so they read 0 on `counts`.
PER_LAYER = (
    "specfun.delta_psi.calls",
    "specfun.delta_psi.self_ms",
    "specfun.trigamma.self_ms",
    "posterior.scalar_evals",
    "posterior.scalar.self_ms",
    "posterior.grid.self_ms",
    "posterior.grid_cells",
    "hyperprior.log_weight.scalar_calls",
    "hyperprior.log_weight.self_ms",
    "hyperprior.log_weight.grid_ms",
    "hyperprior.grid_points",
    "estimators.maximize.calls",
    "estimators.maximize.ms",
    "estimators.quadrature_nodes",
    "estimators.self_ms",
    "counts.build_table.ms",
    "counts.table_rows",
    "trace.overhead_ms",
    "trace.overhead_share",
)
TRACE_UNITS = {"trace.overhead_ms": "ms", "trace.overhead_share": "ratio"}


def machine_facts():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_sha": sha,
    }


def peak_rss_mb():
    """Peak resident memory of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(kind, arg):
    """Seconds from launching a fresh interpreter to its warm-up call returning."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(ROOT), kind, arg],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def warm_up(bd, args, workdir):
    """The untimed first call of this process; returns (kind, arg) for probes."""
    kind = workloads.WARMUP_KIND[args.workload]
    arg = (workloads.write_warmup_csv(workdir, args.seed) if kind == "cli"
           else str(args.seed))
    workloads.warmup(bd, kind, arg)
    return kind, arg


def run_untraced(bd, args, workdir):
    setups = measure_setup(*warm_up(bd, args, workdir))
    cycles = workloads.CYCLES[args.workload](bd, np.random.default_rng(args.seed),
                                             workdir)
    loop = workloads.closed_loop(cycles, args.seconds)
    cycles.close()

    lat_ms = [1e3 * s for s in loop.latencies_s]
    tail_ms, tail_pct, n = measure.tail(lat_ms)
    values = {
        "estimates_per_s": loop.valid / loop.busy_s,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: _metric(values[k], u) for k, u in END_TO_END.items()},
    }
    report = {
        "latency_samples": n,
        "latency_tail_percentile": tail_pct,
        "latency_ms_p50_by_call": loop.latency_ms_by_label(),
        "cycles": loop.cycles,
        "busy_s": loop.busy_s,
        "setup_s_samples": setups,
        "failed_share": loop.failed / loop.attempted,
        "failure_reasons": dict(loop.reasons),
        "mismatches": loop.mismatches,
        "dpm_rel_err": (sum(loop.rel_errs) / len(loop.rel_errs)
                        if loop.rel_errs else None),
        "dpm_rel_err_calls": len(loop.rel_errs),
        "first_traceback": loop.first_traceback,
    }
    return result, report


def run_traced(bd, args, workdir):
    warm_up(bd, args, workdir)
    rng = np.random.default_rng(args.seed)
    if args.workload == "ladder":
        config = workloads.ladder_config(bd, workloads.ladder_seed(rng))
        traced = workloads.traced_ladder(bd, config, args.seconds)
    else:
        cycle = next(workloads.CYCLES[args.workload](bd, rng, workdir))
        traced = workloads.traced_passes(cycle, args.seconds)
    traced_ms = traced.untraced_ms + traced.overhead_ms
    layers = dict(traced.layers)
    layers["trace.overhead_ms"] = traced.overhead_ms
    layers["trace.overhead_share"] = traced.overhead_ms / traced.untraced_ms
    units = {**tracing.LAYER_METRICS, **TRACE_UNITS}
    loop = traced.loop
    result = {
        "correct": loop.correct and traced.results_unchanged and traced.counts_repeat,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: _metric(layers[k], units[k]) for k in PER_LAYER},
    }
    report = {
        "layers": {**layers, **traced.extra},
        "layer_split": traced.split,
        "grid_share": traced.grid_ms / traced_ms,
        "maximize_share": layers["estimators.maximize.ms"] / traced_ms,
        "traced_pass_ms": traced_ms,
        "untraced_pass_ms": traced.untraced_ms,
        "passes": traced.passes,
        "counts_repeat": traced.counts_repeat,
        "results_unchanged_by_tracing": traced.results_unchanged,
        "failed_share": loop.failed / loop.attempted,
        "failure_reasons": dict(loop.reasons),
        "mismatches": loop.mismatches,
        "not_traced": traced.missing,
        "first_traceback": loop.first_traceback,
    }
    return result, report


def print_human(args, result, report):
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"correct={result['correct']}  failed {result['failed']}"
          f"/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'latency tail percentile':40s} "
              f"{report['latency_tail_percentile']:14.4g} "
              f"(of {report['latency_samples']} calls)")
        if report["dpm_rel_err"] is not None:
            print(f"  {'dpm_rel_err':40s} {report['dpm_rel_err']:14.6g} "
                  f"(over {report['dpm_rel_err_calls']} dpm calls)")
    else:
        for name, value in report["layers"].items():
            if name not in result["metrics"]:
                print(f"  {name:40s} {value:14.6g}")
        split = "  ".join(f"{k} {v:.1%}" for k, v in report["layer_split"].items())
        print(f"  layer split: {split}")


def run_one(args):
    sys.path.insert(0, str(SRC))
    import bayesdiv
    import bayesdiv.cli  # noqa: F401  (the CLI module is not imported by the package)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        run = run_traced if args.trace else run_untraced
        result, report = run(bayesdiv, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), **report}
    print_human(args, result, report)
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then a summary table."""
    results = {}
    for workload in WORKLOADS + MORE_WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':40s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':40s}"
              + "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values()))
    print(f"{'failed_share':40s}"
          + "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()))
    print(f"{'correct':40s}" + "".join(f"{str(r['correct']):>14s}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + MORE_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bayesdiv" / "__init__.py").is_file():
        print(f"error: bayesdiv source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
