"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, cwd=ROOT):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--seconds", "0.1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_injected_failure_is_counted_without_crashing():
    proc = _run("--workload", "large_images", "--seed", "0", "--trace", "0",
                "--tiny", "--inject-failure")
    assert proc.returncode == 1
    assert "injected failure" in proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 2
    success = result["metrics"]["success_frac"]["value"]
    assert success == 1.0 - result["failed"] / result["attempted"]


def test_traced_run_restores_every_wrapped_function():
    sys.path.insert(0, str(ROOT / "src"))
    import run  # imports saldet from src/ the way the benchmark does

    sd = run.import_saldet()
    namespaces = [m for n, m in sys.modules.items()
                  if n == "saldet" or n.startswith("saldet.")]
    before = {id(ns): dict(vars(ns)) for ns in namespaces}
    tracer = tracing.Tracer()
    with tracer:
        wrapped = [(ns, attr) for ns in namespaces for attr, v in vars(ns).items()
                   if v is not before[id(ns)][attr]]
        # every target is wrapped where it is defined and where it is imported
        names = {f"{ns.__name__}.{attr}" for ns, attr in wrapped}
        for module, functions in tracing.TARGETS.items():
            assert {f"saldet.{module}.{f}" for f in functions} <= names
        assert {"saldet.trainer.loss_and_grads", "saldet.evaluate.forward",
                "saldet.cli.load_dataset", "saldet.evaluate"} <= names
        sd.accel.nms_keep(np.zeros((2, 4), dtype=np.int64), 0.5)
    for ns in namespaces:
        now = vars(ns)
        assert now.keys() == before[id(ns)].keys()
        assert all(now[k] is v for k, v in before[id(ns)].items())
    assert [tracer.names[s[0]] for s in tracer.spans] == ["accel.nms_keep"]


def test_clock_scales_each_call_by_the_probes_around_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(speed.time, "perf_counter", lambda: now[0])
    # warm-up, before the call, after it: the call ran at a third of the
    # reference speed on average
    probes = iter([1.0, 2 * speed.PROBE_REF_S, 4 * speed.PROBE_REF_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.Clock()

    def call():
        now[0] += 3.0
        return "done"

    assert clock.timed(call) == ("done", pytest.approx(1.0))
    assert (clock.raw, clock.scaled) == (pytest.approx(3.0), pytest.approx(1.0))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    cmd = [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
           "--workload", "ablation", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
