"""Smoke test of the benchmark: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that a run emits every metric BENCHMARK.json names, with its unit;
that traced and untraced runs compute bit-identical results; that a failed
correctness check or a raising operation raises failed_share above 0; that
library time the wrappers miss fails the traced run; that compare mode flags a behaviour change; and that the benchmark refuses to run
without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from ensemble_oc import pontryagin  # noqa: E402
from ensemble_oc import transcription as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace, out):
    return run.run(workload, 1, 0.0, trace, out, size="tiny")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    plain = tiny(workload, False, tmp_path)
    traced = tiny(workload, True, tmp_path)
    for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert record["correct"] and record["failed"] == 0
        line = run.result_line(record)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(plain["metrics"]) == set(run.E2E_UNITS) | set(run.EXTRA_UNITS)
    assert plain["metrics"]["failed_share"] == 0.0
    assert all(plain["metrics"][name] > 0 for name in run.E2E_UNITS)
    assert traced["trace_coverage_ok"] and traced["layers"]["trace.untraced_s"] >= 0
    assert plain["behaviour"] == traced["behaviour"]
    assert list((tmp_path / "spans").glob(f"{workload}-*.jsonl.gz"))


def _skewed_gradient(exact):
    def skewed(problem, point, *args, **kwargs):
        value, grad = exact(problem, point, *args, **kwargs)
        return value, tr.NlpPoint(tuple(1.01 * g for g in grad.controls),
                                  grad.interface_states)

    return skewed


def _raising(*args, **kwargs):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize("module, name, replacement", [
    (tr, "objective_gradient", _skewed_gradient(tr.objective_gradient)),
    (pontryagin, "verify", _raising),
])
def test_failures_raise_failed_share(module, name, replacement, tmp_path, monkeypatch):
    monkeypatch.setattr(module, name, replacement)
    record = tiny("gradient-suite", False, tmp_path)
    assert record["metrics"]["failed_share"] > 0
    assert not record["correct"]
    assert run.result_line(record)["failed"] > 0


def test_unwrapped_library_time_breaks_span_coverage(tmp_path, monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TRACED_MODULES",
                        tuple(m for m in tracer.TRACED_MODULES if m != "transcription"))
    record = tiny("gradient-suite", True, tmp_path)
    assert not record["trace_coverage_ok"]
    assert not record["correct"]


def test_compare_flags_behaviour_changes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    tiny("pde-field", False, a)
    tiny("pde-field", True, a)
    records = compare.load_records(a)
    assert all("identical" in line for line in compare.tracing_identity(records))
    (b / "records").mkdir(parents=True)
    for path in (a / "records").glob("*.json"):
        record = json.loads(path.read_text())
        record["behaviour"][0]["facts"]["objective"] *= 1.0 + 1e-8
        (b / "records" / path.name).write_text(json.dumps(record))
    _, layer_spec = compare.load_spec()
    changes = compare.behaviour_changes(records, compare.load_records(b), layer_spec)
    assert len(changes) == 2 and all("objective" in line for line in changes)
    assert compare.main([str(a), str(b)]) == 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ugv-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
