#!/usr/bin/env python3
"""Summarise one result set written by perfbench/run.py, or compare two.

    python3 perfbench/compare.py OUT_A              # one set
    python3 perfbench/compare.py OUT_A OUT_B        # A (parent) against B (change)
    python3 perfbench/compare.py OUT_A --json FILE  # also write the summary as JSON

A result set is the `--out` directory of a series of runs. For each workload
and end-to-end metric the summary shows the median and quartiles over the
set's untraced runs. A metric whose run-to-run spread (quartile distance over
median) exceeds its bound in BENCHMARK.json is unresolved; otherwise B is a
regression when its median is worse than A's by more than the bound. The
recorded metrics BENCHMARK.json does not list (solve_s, failed_share) are
shown without a verdict.

Behaviour is compared between runs of the same workload and seed: an
objective or other result value that moved by more than 1e-10 relative, or
any change in an exact count (iterations, passes, calls), is a behaviour
change, not a speed-up. Inside one set, traced and untraced runs of
the same seed must agree bit for bit, and the tracing overhead is the traced
wall time minus the untraced one.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-10
# errors of a check, i.e. differences of nearly equal numbers: not results
CHECK_ERRORS = (".rel_error", ".max_abs_error")


def load_spec():
    """The end-to-end and per-layer metrics of BENCHMARK.json, by name."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def load_records(directory):
    records = []
    for path in sorted(Path(directory).glob("records/*.json")):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"compare: no records under {directory}/records")
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summarise(records):
    """Per workload: for every end-to-end metric, the untraced runs' stats."""
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry = {"runs": len(runs), "traced_runs": len(traced),
                 "incorrect_runs": sum(not r["correct"] for r in runs + traced),
                 "metrics": {}, "layers": {}}
        for name in (runs[0]["metrics"] if runs else ()):
            values = [r["metrics"][name] for r in runs]
            if values:
                q1, med, q3 = quartiles(values)
                entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                          "spread": spread(values), "values": values}
        if traced:
            for name in traced[0]["layers"]:
                entry["layers"][name] = statistics.median(r["layers"][name] for r in traced)
            if runs:
                entry["trace_overhead_s"] = (entry["layers"]["trace.wall_s"]
                                             - entry["metrics"]["wall_s"]["median"])
        out[workload] = entry
    return out


def _differences(a, b, path=""):
    """Where two behaviour records differ: (path, kind) with kind 'float' for a
    float beyond REL_TOL, 'bits' for a float within it but not identical, and
    'exact' for anything else."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return []
        scale = max(abs(a), abs(b))
        return [(path, "float" if abs(a - b) > REL_TOL * scale else "bits")]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in _differences(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _differences(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path, "exact")]


def _by_seed(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault((r["workload"], r["seed"]), r)
    return out


def _count_metrics(layer_spec):
    return [name for name, m in layer_spec.items() if m["unit"] == "count"]


def behaviour_changes(a_records, b_records, layer_spec):
    """Behaviour changes between runs of the same workload and seed."""
    lines = []
    for trace in (False, True):
        a, b = _by_seed(a_records, trace), _by_seed(b_records, trace)
        for key in sorted(a.keys() & b.keys()):
            diffs = [d for d in _differences(a[key]["behaviour"], b[key]["behaviour"])
                     if d[1] != "bits" and not d[0].endswith(CHECK_ERRORS)]
            if trace:
                diffs += [(name, "exact") for name in _count_metrics(layer_spec)
                          if a[key]["layers"].get(name) != b[key]["layers"].get(name)]
            for path, _ in diffs:
                lines.append(f"BEHAVIOUR {key[0]} seed {key[1]}"
                             f"{' traced' if trace else ''}: {path}")
    return lines


def tracing_identity(records):
    """Traced and untraced runs of one seed must compute identical results."""
    lines = []
    untraced, traced = _by_seed(records, False), _by_seed(records, True)
    for key in sorted(untraced.keys() & traced.keys()):
        diffs = _differences(untraced[key]["behaviour"], traced[key]["behaviour"])
        state = "identical" if not diffs else "DIFFERS at " + ", ".join(p for p, _ in diffs)
        lines.append(f"tracing {key[0]} seed {key[1]}: objectives and counts {state}")
    return lines


def _fmt(stats):
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def verdict(metric, a, b):
    bound = metric["bound"]
    if a["median"] == b["median"]:
        return "ok"
    lower = metric["better"] == "lower"
    if a["spread"] > bound or b["spread"] > bound:
        all_better = (max(b["values"]) < min(a["values"]) if lower
                      else min(b["values"]) > max(a["values"]))
        return "better (every run)" if all_better else "unresolved"
    ratio = b["median"] / a["median"] if a["median"] else float("inf")
    worse = ratio > 1.0 + bound if lower else ratio < 1.0 - bound
    return "REGRESSION" if worse else "ok"


def print_one(summary, e2e):
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} untraced, {entry['traced_runs']} traced runs, "
              f"{entry['incorrect_runs']} incorrect")
        for name, stats in entry["metrics"].items():
            bound_txt, flag = "no bound", ""
            if name in e2e:
                bound = e2e[name]["bound"]
                bound_txt = f"bound {bound:.2f}"
                flag = "  unresolved" if stats["spread"] > bound else ""
            print(f"  {name:<13s} {_fmt(stats):<40s} spread {stats['spread']:.4f} "
                  f"({bound_txt}){flag}")
        if "trace_overhead_s" in entry:
            print(f"  tracing overhead: {entry['trace_overhead_s']:.4g} s per round")


def print_two(sa, sb, e2e):
    for workload in sorted(sa.keys() & sb.keys()):
        print(f"{workload}: A {sa[workload]['runs']} runs, B {sb[workload]['runs']} runs")
        for name, a in sa[workload]["metrics"].items():
            b = sb[workload]["metrics"].get(name)
            if b is None:
                continue
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            judged = verdict(e2e[name], a, b) if name in e2e else "no bound"
            print(f"  {name:<13s} A {_fmt(a):<36s} B {_fmt(b):<36s} "
                  f"B/A {ratio:.4f}  {judged}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    ap.add_argument("--json", type=Path, help="write the summary of the first set here")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one or two result directories")
    e2e, layer_spec = load_spec()
    records = [load_records(d) for d in args.sets]
    summaries = [summarise(r) for r in records]
    print_one(summaries[0], e2e)
    for line in tracing_identity(records[0]):
        print(line)
    if len(records) == 2:
        print("--- A against B")
        print_two(summaries[0], summaries[1], e2e)
        for line in tracing_identity(records[1]):
            print("B " + line)
        changes = behaviour_changes(records[0], records[1], layer_spec)
        for line in changes:
            print(line)
        if not changes:
            print("no behaviour change between matching runs")
    if args.json:
        env = {k: v for k, v in records[0][0]["env"].items() if k != "seed"}
        env["seeds"] = sorted({r["seed"] for r in records[0]})
        with open(args.json, "w") as fh:
            json.dump({"env": env, "workloads": summaries[0]}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
