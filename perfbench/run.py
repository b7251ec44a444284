"""Benchmark of ``basesize``: one workload per single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from any directory; it builds nothing and imports ``basesize`` from
the ``src/`` directory next to ``perfbench/``, and exits with code 2 when
that is missing.  The workloads are ``verify-large``, ``b0-sweep``,
``finite`` and ``catalogue`` (see ``workloads.py``); ``all`` runs each in
its own child process and prints every metric by name and unit.

A run sets up (import, datasets, inputs from the seed), then repeats the
workload's fixed set of operations ("a pass") for about ``--seconds``,
with the five CLI subcommands run as subprocesses between operations.
Every output is checked.  Times are built from each operation's best time
over the passes (see ``Timings``).  With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate, and the last line carries the
per-layer metrics.  The lines before it are a readable report, which
includes ``failed_frac`` and the known defects from ``ledger.json``.
Spans and the full result are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import MODULES, Tracer, finish_ratios, layer_totals, load_spans, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify-large", "b0-sweep", "finite", "catalogue")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CHILDREN = 4  # set-up is timed in the run itself and in this many fresh processes
CLI_ROUNDS = 2  # rounds of the five CLI subcommands
MIN_PASSES = 2
TRACED_PASSES = 5  # at most; spans of every traced pass stay in memory
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

_COUNTS = (
    "linalg.rref_calls", "linalg.matmul_calls", "linalg.rank_calls", "linalg.elim_rows",
    "linalg.elim_cols", "linalg.elim_ops_computed", "linalg.matmul_object_calls",
    "genstab.sample_calls", "genstab.resamples", "genstab.solves",
    "finitecheck.group_elements", "finitecheck.points", "formulas.base_triple_calls",
    "bounds.inconclusive",
)
PER_LAYER = {
    **{name: "s" for name in (
        "linalg.nullspace_dim_s", "linalg.rref_s", "linalg.matmul_s", "linalg.inv_s", "linalg.det_s",
        "genstab.sample_s", "genstab.solve_s", "genstab.assemble_s",
        "finitecheck.build_s", "finitecheck.closure_s", "finitecheck.base_s", "finitecheck.order_s",
        "formulas.base_triple_s", "formulas.spec_dims_s", "formulas.table_rows_s",
        "bounds.upper_bound_b1_s", "bounds.upper_bound_b0_s", "classdata.load_s", "rootsys.s",
        "trace.overhead_s",
    )},
    **{name: "count" for name in _COUNTS},
    "genstab.sample_accept_ratio": "ratio",
    "genstab.solves_per_estimate": "ratio",
    "finitecheck.perm_bytes_computed": "bytes",
    **{f"cli.{name}_ms": "ms" for name in ("import", "formula", "bounds", "emit", "verify", "finite")},
    **{f"{module}.lines": "lines" for module in MODULES},
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Set-up


def setup(name: str, seed: int, tiny: bool, trace: bool = False):
    """Import ``basesize``, load its data and generate the workload's
    operations; returns (ops, seconds, set-up tracer or None)."""
    started = time.perf_counter()
    import basesize
    import workloads

    tracer = None
    if trace:
        tracer = Tracer("setup")
        tracer.install(basesize)
    try:
        ops = workloads.SETUP[name](seed, tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, time.perf_counter() - started, tracer


def setup_in_child(name: str, seed: int, tiny: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--setup-only"] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Passes


class Timings:
    """Untraced timings of a run: each pass's total and each operation's
    fastest time over the passes.

    The host this was tuned on (2 vCPU, Xeon at 2.1 GHz) has phases of
    5-10 s in which everything runs up to 1.7x slower, a few times a
    minute.  Medians over a run moved 8-35 % between runs; each operation's
    fastest time, taken from passes seconds apart, is far steadier.  So the
    reported times are built from per-op best times."""

    def __init__(self, n_ops: int):
        self.best = [float("inf")] * n_ops
        self.passes: list[int] = []
        self.ops_run = 0

    def quantile_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.best, q)) / 1e6


def run_pass(ops, failures: Counter, best: list | None, tracer=None, poll=None) -> int:
    """One pass over the operations, updating ``best`` (per-op fastest
    time) when given and calling ``poll`` after each operation; returns
    the time spent inside the operations (checks excluded) in
    nanoseconds."""
    clock = time.perf_counter_ns
    total = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        started = clock()
        try:
            out = op.run()
            reason = None
        except Exception as e:  # a raising op is a failed op, not a crash
            reason = f"raised {type(e).__name__}: {e}"
        took = clock() - started
        total += took
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        if best is not None and took < best[i]:
            best[i] = took
        if reason:
            failures[(op.label, reason)] += 1
        if poll is not None:
            poll()
    return total


def run_passes(ops, seconds: float, trace: bool, failures: Counter, cli: CliPhase):
    """Repeat passes for about ``seconds`` of pass time (at least
    MIN_PASSES), with the CLI calls spread between operations.  With
    tracing, untraced and traced passes alternate until TRACED_PASSES
    traced ones have run.  Returns the untraced timings, the traced pass
    totals in nanoseconds and the pass tracers."""
    import basesize

    timings = Timings(len(ops))
    traced: list[int] = []
    tracers = []
    cli.start(seconds)
    while True:
        if trace and len(timings.passes) > len(traced) and len(traced) < TRACED_PASSES:
            tracer = Tracer(f"pass{len(tracers)}")
            tracer.install(basesize)
            try:
                traced.append(run_pass(ops, failures, None, tracer, cli.poll))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            timings.passes.append(run_pass(ops, failures, timings.best, None, cli.poll))
        timings.ops_run += len(ops)
        typical = statistics.median(timings.passes + traced) / 1e9
        if len(timings.passes) + len(traced) >= MIN_PASSES and cli.pass_time() + typical > seconds:
            cli.finish()
            return timings, traced, tracers


# ---------------------------------------------------------------------------
# CLI phase


def cli_call(call, traced_to: Path | None = None) -> tuple[float, str | None]:
    if traced_to is None:
        cmd = [sys.executable, "-m", "basesize.cli", call.subcommand, *call.args]
    else:
        cmd = [sys.executable, str(HERE / "clishim.py"), str(traced_to), call.subcommand, *call.args]
    started = time.perf_counter()
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (time.perf_counter() - started) * 1e3, "timed out"
    ms = (time.perf_counter() - started) * 1e3
    if done.returncode != 0:
        return ms, f"exit code {done.returncode}: {done.stderr.strip()[-200:]}"
    return ms, call.check(done.stdout)


class CliPhase:
    """The timed CLI calls, spread evenly over the passes: the host's slow
    phases last seconds, so calls made back to back would often all land
    in one of them."""

    def __init__(self, calls, rounds: int, failures: Counter):
        self.queue = [call for _ in range(rounds) for call in calls]
        self.ms: dict[str, list[float]] = {call.subcommand: [] for call in calls}
        self.failures = failures
        self.done = 0
        self.spent = 0.0

    def start(self, seconds: float) -> None:
        self.period = seconds / len(self.queue) if self.queue else 0.0
        self.started = time.perf_counter()

    def pass_time(self) -> float:
        """Seconds since ``start`` not spent in CLI calls."""
        return time.perf_counter() - self.started - self.spent

    def poll(self) -> None:
        due = len(self.queue) if self.period == 0 else int(self.pass_time() / self.period) + 1
        while self.done < min(due, len(self.queue)):
            self._run_next()

    def finish(self) -> None:
        while self.done < len(self.queue):
            self._run_next()

    def _run_next(self) -> None:
        call = self.queue[self.done]
        started = time.perf_counter()
        ms, reason = cli_call(call)
        self.spent += time.perf_counter() - started
        self.ms[call.subcommand].append(ms)
        if reason:
            self.failures[(f"cli {call.subcommand}", reason)] += 1
        self.done += 1


def python_ms(code: str) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - started) * 1e3


# ---------------------------------------------------------------------------
# One workload


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            cli_rounds: int = CLI_ROUNDS, setup_children: int = SETUP_CHILDREN) -> dict:
    """Run one workload in this process and return its result: the
    contract fields, the metrics of the requested kind and a report."""
    ops, own_setup, setup_tracer = setup(name, seed, tiny, trace)
    import workloads

    failures: Counter = Counter()  # of the workload's operations
    cli_failures: Counter = Counter()
    cli = CliPhase(workloads.cli_calls(seed), cli_rounds, cli_failures)
    timings, traced, pass_tracers = run_passes(ops, seconds, trace, failures, cli)
    cli_ms = cli.ms
    cli_attempted = len(cli.queue)

    # failed_frac and ok_frac cover the workload's operations; the contract
    # counts also cover the CLI calls, whose failures are never known defects
    failed_frac = sum(failures.values()) / timings.ops_run
    ledger = workloads.LEDGER.get(name, {})
    known = {k: v for k, v in failures.items() if k[0] in ledger}
    unexpected = {k: v for k, v in (failures + cli_failures).items() if k[0] not in ledger}
    failed = sum(unexpected.values())
    attempted = timings.ops_run + cli_attempted
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny, **environment(),
        "passes": len(timings.passes) + len(traced), "ops_per_pass": len(ops),
        "cli_calls": cli_attempted,
        "op_best_ms": [[op.label, t / 1e6] for op, t in zip(ops, timings.best)],
        "failed_frac": failed_frac,
        "cli_p50_ms": statistics.median(min(per) for per in cli_ms.values()),
        "known_defects": [f"{label}: {reason} (x{n})" for (label, reason), n in sorted(known.items())],
        "unexpected_failures": [f"{label}: {reason} (x{n})" for (label, reason), n in sorted(unexpected.items())],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "report": report}
    if not trace:
        setups = [own_setup] + [setup_in_child(name, seed, tiny) for _ in range(setup_children)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(timings.best) / 1e9,
            "op_p50_ms": timings.quantile_ms(50),
            "op_p90_ms": timings.quantile_ms(90),
            "ok_frac": 1 - failed_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return result

    values, shares, spans = layer_metrics(name, seed, setup_tracer, pass_tracers,
                                          workloads.traced_cli_calls(seed), timings.passes, traced)
    values.update({f"cli.{sub}_ms": min(per) for sub, per in cli_ms.items()})
    values["cli.import_ms"] = (
        min(python_ms("import basesize.cli") for _ in range(cli_rounds))
        - min(python_ms("pass") for _ in range(cli_rounds))
    )
    report["share_of_traced_pass"] = shares
    report["spans"] = str(spans.relative_to(ROOT))
    result["metrics"] = {
        k: {"value": int(values[k]) if u in ("count", "bytes", "lines") and float(values[k]).is_integer() else values[k],
            "unit": u}
        for k, u in PER_LAYER.items()
    }
    return result


def layer_metrics(name, seed, setup_tracer, pass_tracers, calls, plain, traced):
    """Per-layer values over one traced set-up, the mean traced pass and
    one traced round of CLI calls; also the layer shares of the traced
    pass and the path of the span dump."""

    OUT.mkdir(exist_ok=True)
    per_pass = [layer_totals(t.spans) for t in pass_tracers]
    mean_pass = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    totals = dict(mean_pass)
    parts = [layer_totals(setup_tracer.spans)]
    cli_spans = []
    for i, call in enumerate(calls):
        path = OUT / f"cli-{name}-{i}.jsonl"
        cli_call(call, traced_to=path)
        spans = load_spans(path)
        path.unlink()
        for s in spans:
            s.phase = f"cli:{call.subcommand}"
        cli_spans.extend(spans)
        parts.append(layer_totals(spans))
    for part in parts:
        for k, v in part.items():
            totals[k] += v
    values = finish_ratios(totals)
    values["trace.overhead_s"] = (min(traced) - min(plain)) / 1e9
    for module in MODULES:
        values[f"{module}.lines"] = len((SRC / "basesize" / f"{module}.py").read_text().splitlines())

    pass_s = statistics.fmean(traced) / 1e9
    shares = {k: mean_pass[k] / pass_s for k in (
        "linalg.nullspace_dim_s", "linalg.rref_s", "genstab.sample_s", "genstab.assemble_s",
        "finitecheck.closure_s", "finitecheck.build_s", "formulas.base_triple_s", "rootsys.s",
    )}

    dump = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(dump, "w") as fh:
        for tracer in [setup_tracer, *pass_tracers]:
            write_spans(tracer.spans, fh)
        write_spans(cli_spans, fh)
    return values, shares, dump


# ---------------------------------------------------------------------------
# Output


def print_report(result: dict) -> None:
    rep = result["report"]
    print(f"# workload {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}  "
          f"nproc {rep['nproc']}  python {rep['python']}  numpy {rep['numpy']}")
    print(f"# passes {rep['passes']}  ops per pass {rep['ops_per_pass']}  cli calls {rep['cli_calls']}  "
          "(wall_s and op percentiles are over each op's best time)")
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:<22.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {rep['failed_frac']:<22.6g} fraction"
          f"  ({rep['passes'] * rep['ops_per_pass']} ops and {rep['cli_calls']} CLI calls attempted,"
          f" {result['failed']} unexpected failures)")
    print(f"  {'cli_p50_ms':34s} {rep['cli_p50_ms']:<22.6g} ms  (median over subcommands of the best call;"
          " not gated, see cli.*_ms in the traced run)")
    for k, v in rep.get("share_of_traced_pass", {}).items():
        print(f"# share of traced pass  {k:30s} {v:.3f}")
    for line in rep["known_defects"]:
        print(f"# known defect  {line}")
    for line in rep["unexpected_failures"]:
        print(f"# FAILED  {line}")


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own child process; prints every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ.update({v: "1" for v in THREAD_VARS})
    if not (SRC / "basesize" / "__init__.py").is_file():
        print(f"error: no basesize sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.tiny)[1]}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print_report(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
