"""The benchmark's own tests: every workload at reduced size.

Run with ``python -m pytest perfbench -m bench`` (the ``bench`` marker keeps
them out of the tier-1 run).  Each workload must emit every metric
``BENCHMARK.json`` declares, with its unit, pass its own output checks
(which include traced output == untraced output), and derive its inputs
from ``--seed`` alone.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

pytestmark = pytest.mark.bench

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("dense-2048", "gds-aref", "campaign-service", "nitho-fit")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, trace, seed=5, seconds=1.0, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


@pytest.fixture(scope="module")
def bench_paths():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    yield
    for path in (os.path.join(ROOT, "src"), BENCH_DIR):
        sys.path.remove(path)


def test_spec_lists_the_workloads_the_command_runs():
    data = spec()
    assert [entry["name"] for entry in data["workloads"]] == list(WORKLOADS)
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert any(entry["name"] == "setup_s" for entry in data["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        for entry in declared:
            assert result["metrics"][entry["name"]]["value"] > 0, entry
    for key in ("cpus", "python", "numpy", "scipy"):
        assert key in details["environment"]
    assert "fft_backend" in details["environment"]["compute"]
    if trace:
        assert os.path.isfile(os.path.join(ROOT, details["trace_file"]))
        if workload != "campaign-service":
            coverage = result["metrics"]["trace.span_coverage"]["value"]
            assert coverage >= 0.9, coverage


def test_traced_imaging_equals_untraced(bench_paths, tmp_path):
    from benchlib import Probes, Tracer
    from wl_imaging import DenseWorkload, output_digest

    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "kernels")
    try:
        workload = DenseWorkload(3, True, str(tmp_path))
        workload.setup(None)
        untraced = output_digest(workload.image())
        tracer = Tracer()
        with Probes(tracer) as probes:
            workload.install_probes(probes)
            traced = output_digest(workload.image())
        assert tracer.spans and traced == untraced
    finally:
        del os.environ["REPRO_KERNEL_CACHE_DIR"]


def test_inputs_are_a_pure_function_of_the_seed(bench_paths, tmp_path):
    import numpy as np
    from repro.layout.sources import synthesize_layout_mask
    from repro.masks.datasets import build_dataset
    from wl_imaging import GdsWorkload
    from wl_service import ServiceWorkload

    def chip(seed, name):
        path = str(tmp_path / name)
        GdsWorkload(seed, True, str(tmp_path)).write_chip(path)
        with open(path, "rb") as handle:
            return handle.read()

    assert chip(7, "a.gds") == chip(7, "b.gds") != chip(8, "c.gds")
    mask = lambda seed: synthesize_layout_mask(512, 512, 256, 1.0, "B2m", seed)
    assert np.array_equal(mask(7), mask(7))
    assert not np.array_equal(mask(7), mask(8))
    service = lambda seed: ServiceWorkload(seed, False, "", "").request(3)
    assert service(7) == service(7) != service(8)
    first, again = (build_dataset("B1", preset="tiny", seed=7)
                    for _ in range(2))
    assert np.array_equal(first.train_masks, again.train_masks)
    assert np.array_equal(first.test_aerials, again.test_aerials)


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark itself: exit non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("dense-2048", 0, cwd=str(tmp_path),
                              run=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
