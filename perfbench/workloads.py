"""Workload inputs, the closed loop that drives them, and the traced passes.

Inputs come from a seeded numpy Generator: truth distributions are
symmetric Dirichlet draws, samples are multinomial counts.  The program
only receives the resulting tables, count files or experiment configs.
Every estimator is looked up on its module at call time, so the tracing
wrappers see the calls the benchmark makes.
"""

import contextlib
import io
import json
import os
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import measure
import tracing

TRUTH_ALPHA = 1.0
SPARSE_CELLS = ((400, 25), (400, 100), (10000, 100), (10000, 400))
DENSE_CELLS = ((400, 4000), (400, 40000), (10000, 40000))
CLI_K = 100_000
CLI_N = 1_000_000
# the criterion-06 ladder of the acceptance tests, with fewer repetitions
LADDER = (25, 50, 100, 200, 400, 1000, 4000, 10000, 40000)
LADDER_REPS = 2
LADDER_WORKERS = 2

WARMUP_KIND = {"sparse": "estimate", "dense": "estimate",
               "ladder": "ladder", "cli_file": "cli"}


@dataclass
class Outcome:
    reason: str | None = None    # why the result is invalid; None if valid
    rel_err: float | None = None  # |estimate/truth - 1| of a dpm call
    value: object = None


@dataclass
class Call:
    label: str
    run: object                   # () -> list of Outcome
    expected: int = 1             # outcomes a call yields; all fail if it raises


@dataclass
class Cycle:
    calls: list
    same: tuple = ()              # (i, j): calls i and j must agree exactly


@dataclass
class LoopResult:
    latencies_s: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    values: list = field(default_factory=list)
    rel_errs: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)
    first_traceback: str | None = None
    attempted: int = 0
    failed: int = 0
    valid: int = 0
    busy_s: float = 0.0                           # summed call latencies
    cycles: int = 0

    def latency_ms_by_label(self):
        by_label = {}
        for label, seconds in zip(self.labels, self.latencies_s):
            by_label.setdefault(label, []).append(1e3 * seconds)
        return {label: statistics.median(v) for label, v in by_label.items()}

    @property
    def correct(self):
        return self.failed == 0 and not self.mismatches


def dirichlet(rng, K, alpha=TRUTH_ALPHA):
    draws = rng.standard_gamma(alpha, K)
    return draws / draws.sum()


# --- calls ------------------------------------------------------------------

def estimator_call(bd, label, fn_name, args, estimator, divergence, truth=None):
    def run():
        report = getattr(bd.estimators, fn_name)(*args)
        reason = measure.check_value(
            estimator, divergence, report.value, report.posterior_std
        )
        err = None
        if truth is not None and reason is None:
            err = measure.rel_err(report.value, truth)
        return [Outcome(reason, err, (report.value, report.posterior_std))]

    return Call(label, run)


def cli_call(bd, files, estimator, truth=None):
    argv = ["estimate", *files, "--estimator", estimator]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = bd.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            payload = None
        reason = measure.check_cli(code, payload, estimator, "kl")
        if reason is not None:
            return [Outcome(reason)]
        value = (payload["value"], payload.get("posterior_std"))
        err = measure.rel_err(value[0], truth) if truth is not None else None
        return [Outcome(None, err, value)]

    kind = "tsv" if len(files) == 2 else "csv"
    return Call(f"cli {kind} {estimator}", run)


def ladder_call(bd, config):
    expected = len(config.size_ladder) * config.repetitions * len(config.estimators)

    def run():
        rows = bd.benchmark.run_convergence(config)
        outcomes = []
        for row in rows:
            reason = measure.check_value(
                row.estimator, "kl", row.estimate, row.posterior_std
            )
            if reason is None and not (np.isfinite(row.true_value)
                                       and row.true_value > 0):
                reason = f"bad truth {row.true_value!r}"
            err = None
            if reason is None and row.estimator == "dpm":
                err = measure.rel_err(row.estimate, row.true_value)
            outcomes.append(Outcome(reason, err))
        missing = expected - len(rows)
        outcomes += [Outcome("missing ladder row")] * max(0, missing)
        outcomes[0].value = tuple(rows)
        return outcomes

    return Call(f"ladder workers={config.workers}", run, expected)


# --- input generators: one Cycle at a time -----------------------------------

def _dpm_calls(bd, table, label, q=None, t=None):
    kl = bd.synth.exact_dkl(q, t) if q is not None else None
    h2 = bd.synth.exact_hellinger_sq(q, t) if q is not None else None
    return [
        estimator_call(bd, f"dpm-kl {label}", "estimate_dkl_dpm", (table,),
                       "dpm", "kl", kl),
        estimator_call(bd, f"dpm-h2 {label}", "estimate_hellinger_dpm",
                       (table,), "dpm", "hellinger2", h2),
    ]


def _nsb_call(bd, n, K, label):
    return estimator_call(bd, f"nsb {label}", "estimate_entropy_nsb", (n, K),
                          "nsb", "entropy")


def _edge_tables(rng):
    """One table with an empty second sample; one K=2 pair with disjoint supports."""
    K = 400
    n = rng.multinomial(25, dirichlet(rng, K))
    yield n, np.zeros(K, dtype=np.int64), K, "edge K=400 N=25 M=0"
    c = int(rng.integers(1, 10))
    yield np.array([c, 0]), np.array([0, c]), 2, "edge K=2 disjoint"


def sparse_cycles(bd, rng, workdir=None):
    """Per cycle: one table per sparse cell, then both edge tables.

    Regular tables get dpm KL, dpm H2 and NSB on their first sample; edge
    tables, a third of the tables, get the two dpm calls.  Edge tables
    carry no known truth and stay out of dpm_rel_err.
    """
    while True:
        calls = []
        for K, N in SPARSE_CELLS:
            q, t = dirichlet(rng, K), dirichlet(rng, K)
            n, m = rng.multinomial(N, q), rng.multinomial(N, t)
            label = f"K={K} N={N}"
            calls += _dpm_calls(bd, bd.build_table(n, m, K), label, q, t)
            calls.append(_nsb_call(bd, n, K, label))
        for n, m, K, label in _edge_tables(rng):
            calls += _dpm_calls(bd, bd.build_table(n, m, K), label)
        yield Cycle(calls)


def dense_cycles(bd, rng, workdir=None):
    """Per cycle: one table per dense cell; dp KL, dpm KL and dpm H2."""
    while True:
        calls = []
        for K, N in DENSE_CELLS:
            q, t = dirichlet(rng, K), dirichlet(rng, K)
            table = bd.build_table(rng.multinomial(N, q), rng.multinomial(N, t), K)
            label = f"K={K} N={N}"
            calls += [
                estimator_call(bd, f"dp-kl {label}", "estimate_dkl_dp",
                               (table,), "dp", "kl"),
                estimator_call(bd, f"dpm-kl {label}", "estimate_dkl_dpm",
                               (table,), "dpm", "kl", bd.synth.exact_dkl(q, t)),
                estimator_call(bd, f"dpm-h2 {label}", "estimate_hellinger_dpm",
                               (table,), "dpm", "hellinger2",
                               bd.synth.exact_hellinger_sq(q, t)),
            ]
        yield Cycle(calls)


def write_count_files(workdir, n, m):
    """The same counts as a TSV pair (nonzero rows, #K= header) and an n,m CSV."""
    K = len(n)
    paths = [os.path.join(workdir, name) for name in ("a.tsv", "b.tsv", "joint.csv")]
    for path, counts in zip(paths, (n, m)):
        idx = np.flatnonzero(counts)
        with open(path, "w") as fh:
            fh.write(f"#K={K}\n")
            fh.writelines(f"c{i}\t{c}\n" for i, c in zip(idx.tolist(), counts[idx].tolist()))
    with open(paths[2], "w") as fh:
        fh.writelines(f"{a},{b}\n" for a, b in zip(n.tolist(), m.tolist()))
    return paths[:2], paths[2:]


def cli_cycles(bd, rng, workdir):
    """Per cycle: fresh K=1e5 count files; TSV/CSV x dpm/zhang, then TSV dpm again.

    The four kinds of call take clearly different times.  With one of
    each, the median call would fall where the two zhang kinds end and
    the two dpm kinds begin, where few calls lie, and it would swing
    with the host's noise.  The fifth call puts the median inside the
    dpm calls.
    """
    while True:
        q, t = dirichlet(rng, CLI_K), dirichlet(rng, CLI_K)
        n, m = rng.multinomial(CLI_N, q), rng.multinomial(CLI_N, t)
        truth = bd.synth.exact_dkl(q, t)
        tsv, csv = write_count_files(workdir, n, m)
        calls = [cli_call(bd, tsv, "dpm", truth), cli_call(bd, csv, "zhang"),
                 cli_call(bd, csv, "dpm", truth), cli_call(bd, tsv, "zhang"),
                 cli_call(bd, tsv, "dpm", truth)]
        yield Cycle(calls, same=((0, 2), (1, 3), (0, 4)))


def ladder_config(bd, master_seed, workers=LADDER_WORKERS):
    return bd.ExperimentConfig(
        generator="dirichlet", K=400, alpha_true=TRUTH_ALPHA,
        beta_true=TRUTH_ALPHA, size_ladder=LADDER, repetitions=LADDER_REPS,
        estimators=bd.ESTIMATOR_NAMES, divergence="kl",
        master_seed=master_seed, workers=workers,
    )


def ladder_seed(rng):
    return int(rng.integers(2**31))


def ladder_cycles(bd, rng, workdir=None):
    """Per cycle: one criterion-06 ladder at a fresh master seed."""
    while True:
        yield Cycle([ladder_call(bd, ladder_config(bd, ladder_seed(rng)))])


CYCLES = {"sparse": sparse_cycles, "dense": dense_cycles,
          "ladder": ladder_cycles, "cli_file": cli_cycles}


# --- warm-up: the untimed first call of a fresh process ----------------------

def warmup(bd, kind, arg):
    """One small call of the workload's kind; `arg` is a seed or a CSV path."""
    if kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            code = bd.cli.main(["estimate", arg, "--estimator", "dpm"])
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")
        return
    rng = np.random.default_rng(int(arg))
    if kind == "ladder":
        config = replace(ladder_config(bd, int(arg), workers=1), K=50,
                         size_ladder=(50, 200), repetitions=1)
        bd.benchmark.run_convergence(config)
        return
    table = bd.build_table(rng.multinomial(200, dirichlet(rng, 50)),
                           rng.multinomial(200, dirichlet(rng, 50)), 50)
    bd.estimators.estimate_dkl_dpm(table)


def write_warmup_csv(workdir, seed):
    rng = np.random.default_rng(seed)
    path = os.path.join(workdir, "warmup.csv")
    n = rng.multinomial(200, dirichlet(rng, 50))
    m = rng.multinomial(200, dirichlet(rng, 50))
    with open(path, "w") as fh:
        fh.writelines(f"{a},{b}\n" for a, b in zip(n.tolist(), m.tolist()))
    return path


# --- the closed loop ----------------------------------------------------------

def run_cycle(cycle, res, tracer=None):
    """Run every call of a cycle, one after the other, into `res`."""
    values = []
    busy = 0.0
    valid = 0
    for call in cycle.calls:
        if tracer is not None:
            tracer.request = len(res.latencies_s)
        t0 = time.perf_counter()
        try:
            outcomes = call.run()
        except Exception as exc:  # a failed call is counted, not fatal
            outcomes = [Outcome(f"{call.label}: raised {type(exc).__name__}")
                        for _ in range(call.expected)]
            if res.first_traceback is None:
                res.first_traceback = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        res.latencies_s.append(elapsed)
        res.labels.append(call.label)
        busy += elapsed
        res.attempted += len(outcomes)
        for out in outcomes:
            if out.reason is not None:
                res.failed += 1
                res.reasons[out.reason.split(":")[0]] += 1
            else:
                valid += 1
                if out.rel_err is not None:
                    res.rel_errs.append(out.rel_err)
        values.append(outcomes[0].value)
    for i, j in cycle.same:
        if values[i] != values[j]:
            res.mismatches.append(
                f"{cycle.calls[i].label} != {cycle.calls[j].label}: "
                f"{values[i]!r} vs {values[j]!r}"
            )
    res.values.append(values)
    res.valid += valid
    res.busy_s += busy
    res.cycles += 1


def closed_loop(cycles, seconds):
    """One client: whole cycles until the next one would end past `seconds`.

    Stopping on a cycle boundary keeps the mix of calls the same in every
    run, so the latency percentiles compare like with like.  Generating a
    cycle's inputs counts toward its length but not toward any latency.
    """
    res = LoopResult()
    start = mark = time.perf_counter()
    last = 0.0
    for cycle in cycles:
        if res.cycles and time.perf_counter() - start + last > seconds:
            break
        run_cycle(cycle, res)
        now = time.perf_counter()
        last, mark = now - mark, now
    return res


# --- traced passes ------------------------------------------------------------

@dataclass
class TracedRun:
    layers: dict
    split: dict
    grid_ms: float
    overhead_ms: float
    untraced_ms: float
    passes: int
    counts_repeat: bool
    results_unchanged: bool
    missing: list
    loop: LoopResult
    extra: dict = field(default_factory=dict)


def _traced_pass(cycle, res):
    with tracing.Tracer() as tracer:
        tracing.instrument(tracer)
        t0 = time.perf_counter()
        run_cycle(cycle, res, tracer)
        wall = time.perf_counter() - t0
    return tracer, wall


def traced_passes(cycle, seconds):
    """Untraced and traced passes over one cycle, alternating which is first.

    Counts come from the first traced pass and must repeat in every
    later one; times are medians over passes.  The tracing overhead is
    the median traced pass minus the median untraced pass.
    """
    res = LoopResult()
    untraced, traced = [], []
    start = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        p0 = time.perf_counter()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer, wall = _traced_pass(cycle, res)
                traced.append((tracer, wall))
            else:
                t0 = time.perf_counter()
                run_cycle(cycle, res)
                untraced.append(time.perf_counter() - t0)
        pair = time.perf_counter() - p0
    per_pass = [tracing.layer_metrics(tr) for tr, _ in traced]
    layers = {
        name: (per_pass[0][name] if unit == "count"
               else statistics.median([m[name] for m in per_pass]))
        for name, unit in tracing.LAYER_METRICS.items()
    }
    counts_repeat = all(
        m[name] == per_pass[0][name] for m in per_pass
        for name in tracing.COUNT_METRICS
    )
    tracer0, wall0 = traced[0]
    traced_ms = 1e3 * statistics.median([w for _, w in traced])
    untraced_ms = 1e3 * statistics.median(untraced)
    return TracedRun(
        layers=layers,
        split=tracing.layer_split(tracer0, 1e3 * wall0),
        grid_ms=statistics.median([tracing.grid_ms(tr) for tr, _ in traced]),
        overhead_ms=traced_ms - untraced_ms,
        untraced_ms=untraced_ms,
        passes=len(traced),
        counts_repeat=counts_repeat,
        results_unchanged=all(v == res.values[0] for v in res.values),
        missing=tracer0.missing,
        loop=res,
    )


def traced_ladder(bd, at_two, seconds):
    """Traced passes of the ladder at workers=1, then one untraced at workers=2.

    Spans recorded in forked pool workers never reach this process, so
    the layer breakdown comes from workers=1 passes, alternating traced
    and untraced as in `traced_passes`.  The workers=2 pass gives the
    parallel speed-up against the median untraced workers=1 pass.  Every
    pass must return the same rows.
    """
    at_one = replace(at_two, workers=1)
    traced = traced_passes(Cycle([ladder_call(bd, at_one)]), seconds)
    res = traced.loop
    t0 = time.perf_counter()
    run_cycle(Cycle([ladder_call(bd, at_two)]), res)
    wall_two_ms = 1e3 * (time.perf_counter() - t0)
    rows = [values[0] for values in res.values]
    traced.results_unchanged = rows[0] is not None and all(r == rows[0] for r in rows)
    traced.extra = {"benchmark.parallel_speedup": traced.untraced_ms / wall_two_ms,
                    "ladder_workers1_ms": traced.untraced_ms,
                    "ladder_workers2_ms": wall_two_ms}
    return traced
