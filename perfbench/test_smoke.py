"""Self-test of the benchmark runner on tiny specs (UO4(F_3), UT3(F_3)).

    python3 -m pytest -q perfbench/test_smoke.py

Runs perfbench/run.py on the "smoke" workload in both modes and checks
that every metric named in BENCHMARK.json is emitted with its unit and
that no command failed, and that a child's time is rescaled by the
calibration samples taken around it.  Takes a few seconds.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "perfbench", "run.py")


def _run(trace):
    done = subprocess.run(
        [sys.executable, RUNNER, "--workload", "smoke", "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _check(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # fail_frac
    assert result["correct"] is True
    for name, unit in declared.items():
        assert name in result["metrics"], name
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float)), name


def test_end_to_end_metrics():
    result = _run(trace=0)
    _check(result, _declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics():
    result = _run(trace=1)
    _check(result, _declared("per_layer"))
    metrics = result["metrics"]
    assert metrics["cli.verify.UO4_F3.wall_s"]["value"] > 0
    assert metrics["orbits.g2.s"]["value"] > 0
    assert metrics["triangular.samples"]["value"] > 0


def test_scale_uses_the_samples_around_the_child():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look the module up by name
    spec.loader.exec_module(run)
    sampler = run.SpeedSampler()
    sampler.samples = [(0.0, 0.012), (10.2, 0.003), (10.6, 0.009), (30.0, 0.012)]
    child = run.Child(0, b"", b"", start=10.0, end=11.0, cpu_s=0.0, rss_mb=0.0)
    assert sampler.scale(child) == pytest.approx(run.CALIBRATION_REF_S / 0.006)


def test_runner_needs_sources(tmp_path):
    """Without src/ next to it the runner refuses, printing no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "layers.py"):
        with open(os.path.join(ROOT, "perfbench", name)) as fh:
            (bench / name).write_text(fh.read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

