#!/usr/bin/env python3
"""Benchmark of ensemble_oc: solve, verify and exact-gradient workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ugv-study --seed 42 --seconds 35 --trace 0

One run is one process driving the library as a closed loop with workers=1
and one BLAS thread: it sets the workload up, then runs whole rounds of its
phases, each phase starting when the previous one returns, until the next
round would end after `--seconds`. It always runs at least one round.
Metrics are medians over the rounds; set-up time is the median over fresh
processes started one at a time between the rounds. With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` wrappers record spans around every call into the library
and the JSON object holds the per-layer metrics instead. Each run also writes a
result record (metrics, objectives, iteration counts, environment) under
`--out`, and a traced run writes its spans next to it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # must precede the first numpy import
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
KINDS = ("solve", "verify", "gradient", "fd_check")
# In a traced round, the time outside every library span (the benchmark's own
# code) may be at most this share of the round: more means the wrappers miss
# a library function the round spends its time in.
UNTRACED_MAX = 0.02

# BENCHMARK.json names every metric of the result line and its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed and recorded, but not in the result line: solve_s is zero on
# gradient-suite (no solver there), and failed_share whenever nothing fails.
# Solve time is gated through wall_s and cpu_s on the two solving workloads.
EXTRA_UNITS = {"solve_s": "s", "failed_share": "share"}


class RoundAborted(Exception):
    """An operation raised; the rest of the round depends on its result."""


class Op:
    """One solve, verify, gradient or finite-difference check."""

    def __init__(self, kind, name):
        self.kind = kind
        self.name = name
        self.seconds = 0.0
        self.facts = {}
        self.failures = []

    def fact(self, **values):
        self.facts.update(values)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def to_dict(self):
        return {"kind": self.kind, "name": self.name, "seconds": self.seconds,
                "ok": not self.failures, "failures": self.failures, "facts": self.facts}


class Recorder:
    """Times the phases of one round and collects its operations."""

    def __init__(self, tracer, artifact_dir):
        self.tracer = tracer
        self.artifact_dir = artifact_dir
        self.ops = []
        self.times = dict.fromkeys(KINDS, 0.0)
        self._current = None

    @contextmanager
    def op(self, kind, name):
        op = self._current = Op(kind, name)
        self.ops.append(op)
        try:
            yield op
        except Exception as err:  # an operation's failure ends the round, not the run
            op.failures.append(f"raised {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
            raise RoundAborted(name) from err
        finally:
            self._current = None

    def timed(self, kind, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(f"bench.{kind}"):
                return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.times[kind] += elapsed
            if self._current is not None:
                self._current.seconds += elapsed


def run_round(round_fn, state, tracer, artifact_dir, index):
    rec = Recorder(tracer, artifact_dir)
    if tracer is not None:
        tracer.start_round(index)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            round_fn(state, rec)
        else:
            with tracer.span("bench.round"):
                round_fn(state, rec)
    except RoundAborted:
        pass
    except Exception as err:  # raised between operations: count it as a failed one
        op = Op("round", "round")
        op.failures.append(f"raised {type(err).__name__}: {err}")
        rec.ops.append(op)
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - wall0
    result = {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
              **{f"{kind}_s": rec.times[kind] for kind in KINDS},
              "ops": [op.to_dict() for op in rec.ops]}
    if tracer is not None:
        traced_wall = tracer.inclusive["bench.round"]
        solves = [op.facts for op in rec.ops if op.kind == "solve"]
        result["layers"] = tracer.round_metrics(
            traced_wall, sum(f.get("inner", 0) for f in solves),
            sum(f.get("outer", 0) for f in solves))
    return result


def behaviour(ops):
    """What a round computed, without its timings: must repeat exactly."""
    return [{k: op[k] for k in ("kind", "name", "ok", "facts")} for op in ops]


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=60, check=True).stdout.strip()

        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision, dirty = git_state()
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workers": 1,
        "seed": seed,
        "machine": platform.machine(),
    }


def import_library():
    """Import ensemble_oc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ensemble_oc
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import ensemble_oc from {src}: {err}")
    if not Path(ensemble_oc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: ensemble_oc imported from {ensemble_oc.__file__}, not {src}")


def measure_setup(workload, seed, size):
    """Set-up time of a fresh process, from the start of run.py to the
    workload's inputs being ready: imports, problems.build, Chebyshev
    operators and ensemble draws."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=170, check=True)
    return float(child.stdout.split()[-1])


def run(workload, seed, seconds, trace, out_dir, size="full", import_s=0.0):
    """Run one workload; returns the full result record."""
    import workloads
    from tracer import Tracer

    setup_fn, round_fn = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    state = setup_fn(seed, workloads.SIZES[workload][size])
    setup_here = time.perf_counter() - start

    stem = f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    artifact_dir = out_dir / "artifacts" / workload
    artifact_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(m.model for m in workloads.problems_of(state))
    # fresh-process set-ups run between the rounds, so that their median
    # samples the machine over the whole run, not over its first seconds
    setups = []
    rounds = []
    loop_start = time.perf_counter()
    try:
        while True:
            setups.append(measure_setup(workload, seed, size))
            rounds.append(run_round(round_fn, state, tracer, artifact_dir, len(rounds) + 1))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if time.perf_counter() - loop_start + typical > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload, seed, size))

    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    metrics = {
        "setup_s": statistics.median(setups),
        **{key: statistics.median(r[key] for r in rounds)
           for key in ("wall_s", "cpu_s", *(f"{kind}_s" for kind in KINDS))},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / len(ops) if ops else 1.0,
    }
    first = behaviour(rounds[0]["ops"])
    deterministic = all(behaviour(r["ops"]) == first for r in rounds[1:])
    layers = {}
    trace_ok = True
    if trace:
        layers = {key: statistics.median(r["layers"][key] for r in rounds) for key in LAYER_UNITS}
        trace_ok = all(r["layers"]["trace.untraced_s"] <= UNTRACED_MAX * r["layers"]["trace.wall_s"]
                       for r in rounds)
        spans_dir = out_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{stem}.jsonl.gz")

    record = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "seconds": seconds,
        "size": size,
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": failed,
        "deterministic": deterministic,
        "trace_coverage_ok": trace_ok,
        "correct": bool(ops) and failed == 0 and deterministic and trace_ok,
        "metrics": metrics,
        "layers": layers,
        "setup_runs_s": setups,
        "import_s": import_s,
        "setup_in_process_s": setup_here,
        "behaviour": first,
        "round_detail": rounds,
        "env": environment(seed),
    }
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    with open(records_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def _fmt_facts(facts):
    parts = []
    for key, value in facts.items():
        parts.append(f"{key}={value:.10g}" if isinstance(value, float) else f"{key}={value}")
    return " ".join(parts)


def report(record):
    """Human-readable lines; the caller prints the JSON line after them."""
    env = record["env"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"seconds={record['seconds']} rounds={record['rounds']}",
        f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
        f"blas threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc {env['nproc']}, "
        f"workers {env['workers']}, git {env['git_revision']} dirty={env['git_dirty']}",
        f"setup: median of {len(record['setup_runs_s'])} fresh-process set-ups "
        f"{statistics.median(record['setup_runs_s']):.4f} s; in this process import "
        f"{record['import_s']:.4f} s + set-up {record['setup_in_process_s']:.4f} s",
    ]
    for index, rnd in enumerate(record["round_detail"], 1):
        lines.append(f"round {index}: wall {rnd['wall_s']:.3f} s, cpu {rnd['cpu_s']:.3f} s")
        for op in rnd["ops"]:
            status = "ok" if op["ok"] else "FAILED: " + "; ".join(op["failures"])
            lines.append(f"  {op['kind']:<9s}{op['name']:<28s}{op['seconds']:9.4f} s  "
                         f"{status}  {_fmt_facts(op['facts'])}")
    traced = " (traced run: times include tracing)" if record["trace"] else ""
    lines.append(f"end-to-end metrics, median of {record['rounds']} round(s){traced}:")
    for key, unit in {**E2E_UNITS, **EXTRA_UNITS}.items():
        value = record["metrics"][key]
        lines.append(f"  {key:<14s}{value:14.6g} {unit}")
    lines.append(f"  operations: {record['attempted']} attempted, {record['failed']} failed, "
                 f"rounds deterministic: {record['deterministic']}")
    if record["trace"]:
        lines.append(f"per-layer metrics, median of {record['rounds']} round(s):")
        for key, unit in LAYER_UNITS.items():
            lines.append(f"  {key:<36s}{record['layers'][key]:14.6g} {unit}")
        lines.append(f"  span coverage (untraced <= {UNTRACED_MAX:.0%} of wall in every round): "
                     f"{'ok' if record['trace_coverage_ok'] else 'BROKEN'}")
    return lines


def result_line(record):
    """The contract's final JSON object."""
    if record["trace"]:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="ugv-study, pde-field or gradient-suite")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the acceptance tests' seed)")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measure whole rounds for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for records, spans and artifacts")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the seconds it took, exit")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    import_library()
    import workloads

    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if args.setup_only:
        workloads.WORKLOADS[args.workload][0](seed, workloads.SIZES[args.workload][args.size])
        print(time.perf_counter() - T0)
        return 0
    record = run(args.workload, seed, args.seconds, args.trace, args.out, args.size, import_s)
    for line in report(record):
        print(line)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
